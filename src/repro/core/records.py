"""Per-configuration score bookkeeping across the whole tournament.

Two scores drive DarwinGame's decisions (Figs. 5 and 7):

* **execution score** — within one game, the fraction of work a player
  completed relative to the fastest player of that game;
* **consistency score** — the average of ``1 / rank`` over *all* games the
  player has played so far, where rank is the player's execution-score rank
  within each game.  High consistency means the configuration performs well
  repeatedly, under different noise and different opponents.

The book is a set of dense columns indexed directly by configuration index
and sized once from the search space: running score sums, game and win
counts, and the region each configuration was drawn from.  Booking a game
is one scatter-add per column and every score query is a plain gather, no
matter how many games have been played.  A column costs 8 bytes per
configuration.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.stats import rank_with_ties
from repro.errors import TournamentError


class RecordBook:
    """Dense score columns over the configuration indices ``[0, size)``.

    Attributes:
        score_sums: running sum of each configuration's execution scores.
        rank_sums: running sum of each configuration's ``1 / rank``.
        games: games each configuration has played.
        wins: games each configuration won on execution score.
        region_id: the region each configuration was drawn from (``-1`` for
            none — entrants that skipped the regional phase, or players
            never drawn).
    """

    def __init__(self, size: int) -> None:
        size = int(size)
        if size < 1:
            raise TournamentError(f"a record book needs size >= 1, got {size}")
        self.size = size
        self.score_sums = np.zeros(size)
        self.rank_sums = np.zeros(size)
        self.games = np.zeros(size, dtype=np.int64)
        self.wins = np.zeros(size, dtype=np.int64)
        self.region_id = np.full(size, -1, dtype=np.int64)
        self._total_evaluations = 0

    def _checked(self, indices: Sequence[int]) -> np.ndarray:
        """``indices`` as an int64 array, rejecting any outside ``[0, size)``.

        numpy would otherwise wrap a negative index (say the ``-1`` region
        sentinel) silently onto the last configuration.
        """
        idx = np.asarray(indices, dtype=np.int64)
        # One reduction checks both ends: as unsigned, negatives are huge.
        if idx.size and int(idx.view(np.uint64).max()) >= self.size:
            bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
            raise TournamentError(
                f"configuration index {bad} outside the record book "
                f"of size {self.size}"
            )
        return idx

    def assign_regions(self, indices: Sequence[int], region_id: int) -> None:
        """Mark every configuration of ``indices`` as drawn from ``region_id``."""
        self.region_id[self._checked(indices)] = region_id

    def record_game(
        self, indices: Sequence[int], execution_scores: Sequence[float]
    ) -> int:
        """Book one game's scores and ranks; returns the winner's position.

        The winner of a *game* (before consistency enters the picture) is the
        player with the highest execution score.
        """
        if len(indices) != len(execution_scores):
            raise TournamentError("indices and execution_scores length mismatch")
        if len(indices) == 0:
            raise TournamentError("cannot record an empty game")
        idx = self._checked(indices)
        scores = np.asarray(execution_scores, dtype=float)
        ranks = rank_with_ties(scores, descending=True)
        winner_pos = int(np.argmax(scores))
        inverse = 1.0 / np.asarray(ranks, dtype=float)
        # ``add.at`` is unbuffered and applies repeated indices in positional
        # order: each sum accumulates exactly as a per-game loop would.
        np.add.at(self.score_sums, idx, scores)
        np.add.at(self.rank_sums, idx, inverse)
        np.add.at(self.games, idx, 1)
        self.wins[idx[winner_pos]] += 1
        self._total_evaluations += len(idx)
        return winner_pos

    @property
    def total_evaluations(self) -> int:
        """Application executions paid for (a k-player game counts k)."""
        return self._total_evaluations

    def mean_execution_scores(self, indices: Sequence[int]) -> np.ndarray:
        """Mean execution score per configuration; 0.0 before its first game."""
        idx = self._checked(indices)
        return self.score_sums[idx] / np.maximum(self.games[idx], 1)

    def consistency_scores(self, indices: Sequence[int]) -> np.ndarray:
        """Mean of 1/rank per configuration (Fig. 7); 0.0 before its first game."""
        idx = self._checked(indices)
        return self.rank_sums[idx] / np.maximum(self.games[idx], 1)

    def combined_rank_order(
        self,
        indices: Sequence[int],
        *,
        use_execution: bool = True,
        use_consistency: bool = True,
    ) -> np.ndarray:
        """Order positions by summed execution- and consistency-score ranks.

        The paper ranks global-phase players by the *summation* of their
        execution-score ranking and consistency-score ranking; the lowest sum
        wins (Sec. 3.4).  Returns positions into ``indices``, best first.
        """
        if not use_execution and not use_consistency:
            raise TournamentError("at least one score must be used for ranking")
        total = np.zeros(len(indices), dtype=float)
        exec_scores = self.mean_execution_scores(indices)
        if use_execution:
            total += rank_with_ties(exec_scores, descending=True)
        if use_consistency:
            total += rank_with_ties(self.consistency_scores(indices), descending=True)
        # Tie-break deterministically on execution score, then index.
        keys = list(zip(total, -exec_scores, [int(i) for i in indices]))
        return np.array(sorted(range(len(indices)), key=lambda p: keys[p]), dtype=np.int64)
