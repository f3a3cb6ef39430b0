"""Property-based tests for tournament score bookkeeping (Figs. 5 and 7)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import RecordBook

#: Every generated player index lies below this (plus one reserved hero).
BOOK_SIZE = 1000


@st.composite
def game_histories(draw):
    """A sequence of games over a small player population."""
    n_players = draw(st.integers(2, 10))
    n_games = draw(st.integers(1, 8))
    games = []
    for _ in range(n_games):
        k = draw(st.integers(2, n_players))
        players = draw(
            st.lists(
                st.integers(0, n_players - 1),
                min_size=k, max_size=k, unique=True,
            )
        )
        scores = [draw(st.floats(0.01, 1.0)) for _ in players]
        # Execution scores are normalised to the game's best (Fig. 5).
        best = max(scores)
        games.append((players, [s / best for s in scores]))
    return games


class TestRecordBookProperties:
    @given(game_histories())
    @settings(max_examples=80, deadline=None)
    def test_consistency_score_bounded(self, games):
        """1/rank lies in (0, 1], so its average must too."""
        book = RecordBook(BOOK_SIZE)
        for players, scores in games:
            book.record_game(players, scores)
        for players, _ in games:
            for p in players:
                assert 0.0 < book.consistency_scores([p])[0] <= 1.0

    @given(game_histories())
    @settings(max_examples=80, deadline=None)
    def test_total_evaluations_counts_seats(self, games):
        book = RecordBook(BOOK_SIZE)
        for players, scores in games:
            book.record_game(players, scores)
        assert book.total_evaluations == sum(len(p) for p, _ in games)

    @given(game_histories())
    @settings(max_examples=80, deadline=None)
    def test_wins_sum_to_games(self, games):
        book = RecordBook(BOOK_SIZE)
        for players, scores in games:
            book.record_game(players, scores)
        all_players = {p for players, _ in games for p in players}
        assert book.wins[sorted(all_players)].sum() == len(games)
        assert book.wins.sum() == len(games)

    @given(game_histories())
    @settings(max_examples=80, deadline=None)
    def test_winner_has_top_execution_score(self, games):
        book = RecordBook(BOOK_SIZE)
        for players, scores in games:
            pos = book.record_game(players, scores)
            assert scores[pos] == max(scores)

    @given(game_histories())
    @settings(max_examples=80, deadline=None)
    def test_games_played_matches_appearances(self, games):
        book = RecordBook(BOOK_SIZE)
        appearances: dict = {}
        for players, scores in games:
            book.record_game(players, scores)
            for p in players:
                appearances[p] = appearances.get(p, 0) + 1
        for p, n in appearances.items():
            assert book.games[p] == n
        assert book.games.sum() == sum(appearances.values())

    @given(game_histories())
    @settings(max_examples=60, deadline=None)
    def test_combined_rank_order_is_permutation(self, games):
        book = RecordBook(BOOK_SIZE)
        seen: set = set()
        for players, scores in games:
            book.record_game(players, scores)
            seen.update(players)
        pool = sorted(seen)
        order = book.combined_rank_order(pool)
        assert sorted(order.tolist()) == list(range(len(pool)))

    @given(game_histories())
    @settings(max_examples=60, deadline=None)
    def test_perfect_player_ranks_first(self, games):
        """A player that won every game with score 1.0 must lead the order."""
        book = RecordBook(BOOK_SIZE)
        hero = 999  # distinct from the generated population (0-9)
        for players, scores in games:
            book.record_game(list(players) + [hero], list(scores) + [1.0001])
        pool = sorted({p for players, _ in games for p in players} | {hero})
        order = book.combined_rank_order(pool)
        assert pool[int(order[0])] == hero


@st.composite
def booking_sequences(draw):
    """Games and region writes over a small population, repeats allowed.

    Players may repeat across games and even within one game; scores are
    drawn from a few values so rank ties are common.
    """
    n_players = draw(st.integers(1, 12))
    player = st.integers(0, n_players - 1)
    score = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 1.0))
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            players = draw(st.lists(player, min_size=1, max_size=6))
            steps.append(("game", players, [draw(score) for _ in players]))
        else:
            players = draw(st.lists(player, max_size=4))
            steps.append(("region", players, draw(st.integers(0, 3))))
    return n_players, steps


def _fold(values):
    """Left-to-right float sum (``sum()`` compensates on Python >= 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total


class TestColumnsAgainstHistory:
    @given(booking_sequences())
    @settings(max_examples=150, deadline=None)
    def test_columns_match_per_game_history(self, sequence):
        """Every column equals a naive per-game history, bit for bit."""
        n_players, steps = sequence
        book = RecordBook(n_players)
        scores = {p: [] for p in range(n_players)}
        inverse_ranks = {p: [] for p in range(n_players)}
        wins = dict.fromkeys(range(n_players), 0)
        region = dict.fromkeys(range(n_players), -1)
        for kind, players, payload in steps:
            if kind == "region":
                book.assign_regions(players, payload)
                for p in players:
                    region[p] = payload
                continue
            winner_pos = book.record_game(players, payload)
            assert winner_pos == payload.index(max(payload))
            wins[players[winner_pos]] += 1
            for p, s in zip(players, payload):
                rank = 1 + sum(1 for other in payload if other > s)
                scores[p].append(s)
                inverse_ranks[p].append(1.0 / rank)

        everyone = list(range(n_players))
        means = book.mean_execution_scores(everyone)
        consistency = book.consistency_scores(everyone)
        for p in everyone:
            n = len(scores[p])
            assert book.games[p] == n
            assert book.wins[p] == wins[p]
            assert book.region_id[p] == region[p]
            assert book.score_sums[p] == _fold(scores[p])
            assert book.rank_sums[p] == _fold(inverse_ranks[p])
            assert means[p] == (_fold(scores[p]) / n if n else 0.0)
            assert consistency[p] == (_fold(inverse_ranks[p]) / n if n else 0.0)
        assert book.total_evaluations == sum(len(v) for v in scores.values())
