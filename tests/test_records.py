"""Unit tests for tournament score bookkeeping."""

import numpy as np
import pytest

from repro.core.records import RecordBook
from repro.errors import TournamentError


class TestPlayerRecord:
    """One configuration's entries, read across the book's columns."""

    def test_defaults(self):
        book = RecordBook(10)
        assert book.games[7] == 0
        assert book.wins[7] == 0
        assert book.region_id[7] == -1
        assert book.mean_execution_scores([7])[0] == 0.0
        assert book.consistency_scores([7])[0] == 0.0

    def test_mean_execution_score(self):
        book = RecordBook(4)
        book.record_game([0, 1], [1.0, 0.8])
        book.record_game([2, 0], [1.0, 0.5])
        assert book.mean_execution_scores([0])[0] == pytest.approx(0.75)

    def test_consistency_score_is_mean_inverse_rank(self):
        book = RecordBook(4)
        book.record_game([0, 1], [1.0, 0.5])           # rank 1
        book.record_game([1, 0], [1.0, 0.5])           # rank 2
        book.record_game([1, 2, 3, 0], [1.0, 0.9, 0.8, 0.1])  # rank 4
        assert book.consistency_scores([0])[0] == pytest.approx(
            (1 + 0.5 + 0.25) / 3
        )


class TestRecordBook:
    def test_columns_sized_once(self):
        book = RecordBook(16)
        assert book.size == 16
        for column in (book.score_sums, book.rank_sums, book.games,
                       book.wins, book.region_id):
            assert column.shape == (16,)
        assert (book.region_id == -1).all()
        assert book.games.sum() == 0

    def test_size_must_be_positive(self):
        with pytest.raises(TournamentError, match="size >= 1"):
            RecordBook(0)

    def test_record_game_scores_and_ranks(self):
        book = RecordBook(40)
        winner = book.record_game([10, 20, 30], [1.0, 0.8, 0.4])
        assert winner == 0
        assert book.rank_sums[10] == 1.0
        assert book.rank_sums[20] == 0.5
        assert book.rank_sums[30] == pytest.approx(1 / 3)
        assert book.wins[10] == 1
        assert book.wins[20] == 0
        assert book.games[[10, 20, 30]].tolist() == [1, 1, 1]
        assert book.games.sum() == 3

    def test_consistency_across_games(self):
        book = RecordBook(3)
        book.record_game([1, 2], [1.0, 0.9])   # 1 ranks 1st
        book.record_game([1, 2], [0.7, 1.0])   # 1 ranks 2nd
        assert book.consistency_scores([1])[0] == pytest.approx((1.0 + 0.5) / 2)

    def test_total_evaluations(self):
        book = RecordBook(4)
        book.record_game([1, 2, 3], [1.0, 0.9, 0.8])
        book.record_game([1, 2], [1.0, 0.9])
        assert book.total_evaluations == 5

    def test_empty_game_rejected(self):
        with pytest.raises(TournamentError):
            RecordBook(4).record_game([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TournamentError):
            RecordBook(4).record_game([1], [1.0, 0.5])

    def test_score_vectors(self):
        book = RecordBook(3)
        book.record_game([1, 2], [1.0, 0.5])
        assert np.allclose(book.mean_execution_scores([1, 2]), [1.0, 0.5])
        assert np.allclose(book.consistency_scores([1, 2]), [1.0, 0.5])

    def test_score_vectors_accept_arrays(self):
        book = RecordBook(3)
        book.record_game([1, 2], [1.0, 0.5])
        played = np.array([2, 1], dtype=np.int64)
        assert book.mean_execution_scores(played).tolist() == [0.5, 1.0]
        assert book.mean_execution_scores([]).shape == (0,)

    def test_assign_regions_is_one_write(self):
        book = RecordBook(10)
        book.assign_regions([3, 5, 7], 2)
        book.assign_regions([3, 5], 2)  # idempotent rewrite
        assert book.region_id.tolist() == [-1, -1, -1, 2, -1, 2, -1, 2, -1, -1]


class TestIndexBounds:
    """Out-of-range indices are rejected, never wrapped by numpy."""

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_record_game_rejects(self, bad):
        book = RecordBook(8)
        with pytest.raises(TournamentError, match=f"index {bad} .* size 8"):
            book.record_game([0, bad], [1.0, 0.5])
        # Nothing was booked by the rejected game.
        assert book.games.sum() == 0
        assert book.total_evaluations == 0

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_assign_regions_rejects(self, bad):
        book = RecordBook(8)
        with pytest.raises(TournamentError, match=f"index {bad} .* size 8"):
            book.assign_regions([2, bad], 0)
        assert (book.region_id == -1).all()

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_score_reads_reject(self, bad):
        book = RecordBook(8)
        for read in (book.mean_execution_scores, book.consistency_scores,
                     book.combined_rank_order):
            with pytest.raises(TournamentError, match=f"index {bad} .* size 8"):
                read([0, bad])

    def test_edge_indices_accepted(self):
        book = RecordBook(8)
        book.assign_regions([0, 7], 1)
        book.record_game([7, 0], [1.0, 0.5])
        assert book.mean_execution_scores([0, 7]).tolist() == [0.5, 1.0]
        assert book.wins[7] == 1
        assert book.region_id[[0, 7]].tolist() == [1, 1]


class TestCombinedRanking:
    def test_joint_winner(self):
        """Winner = lowest sum of execution and consistency rank (Fig. 7)."""
        book = RecordBook(4)
        # Player 1: always strong.  Player 2: spiky.  Player 3: weak.
        book.record_game([1, 2, 3], [1.0, 0.95, 0.5])
        book.record_game([1, 2, 3], [1.0, 0.6, 0.55])
        order = book.combined_rank_order([1, 2, 3])
        assert order[0] == 0  # player 1 first

    def test_consistency_breaks_execution_ties(self):
        book = RecordBook(4)
        book.record_game([1, 2], [1.0, 1.0])  # tied game
        book.record_game([1, 3], [1.0, 0.2])
        book.record_game([2, 3], [0.5, 1.0])  # player 2 loses one
        order = book.combined_rank_order([1, 2])
        assert [1, 2][order[0]] == 1

    def test_requires_a_score(self):
        book = RecordBook(3)
        book.record_game([1, 2], [1.0, 0.5])
        with pytest.raises(TournamentError):
            book.combined_rank_order([1, 2], use_execution=False, use_consistency=False)

    def test_single_score_modes(self):
        book = RecordBook(3)
        book.record_game([1, 2], [1.0, 0.5])
        exec_only = book.combined_rank_order([1, 2], use_consistency=False)
        cons_only = book.combined_rank_order([1, 2], use_execution=False)
        assert exec_only[0] == 0
        assert cons_only[0] == 0
