"""Tournament branch predictor and branch target buffer (Table 1)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.uarch.config import MicroarchConfig


class SaturatingCounter:
    """A small helper namespace for 2-bit saturating counter arithmetic."""

    @staticmethod
    def update(value: int, taken: bool, maximum: int = 3) -> int:
        if taken:
            return min(maximum, value + 1)
        return max(0, value - 1)

    @staticmethod
    def is_taken(value: int, threshold: int = 2) -> bool:
        return value >= threshold


class TournamentPredictor:
    """Local + gshare global predictor with a chooser, as in Alpha 21264/gem5.

    The predictor is indexed with the macro-instruction RIP.  It is updated
    speculatively at prediction time for the global history register (with
    checkpoint/restore on squash handled by the pipeline through
    :meth:`snapshot_history` / :meth:`restore_history`) and non-speculatively
    at branch resolution for the pattern tables.
    """

    def __init__(self, config: MicroarchConfig):
        self._local_size = config.local_predictor_entries
        self._global_size = config.global_predictor_entries
        self._chooser_size = config.chooser_entries
        self._history_mask = (1 << config.global_history_bits) - 1
        # 2-bit counters, one byte each: a snapshot or restore is one copy.
        self._local_table = bytearray(b"\x01") * self._local_size
        self._global_table = bytearray(b"\x01") * self._global_size
        self._chooser = bytearray(b"\x01") * self._chooser_size
        self.global_history = 0
        # Delta-checkpoint support: (table, index) pairs mutated since the
        # last drain, with table in {"local", "global", "chooser"} (None
        # while tracking is disabled).
        self._dirty = None

    # ------------------------------------------------------------------
    def _local_index(self, rip: int) -> int:
        return rip % self._local_size

    def _global_index(self, rip: int) -> int:
        return (rip ^ self.global_history) % self._global_size

    def _chooser_index(self, rip: int) -> int:
        return rip % self._chooser_size

    # ------------------------------------------------------------------
    def predict(self, rip: int) -> bool:
        """Predict the direction of the conditional branch at ``rip``."""
        local_taken = SaturatingCounter.is_taken(self._local_table[self._local_index(rip)])
        global_taken = SaturatingCounter.is_taken(self._global_table[self._global_index(rip)])
        use_global = SaturatingCounter.is_taken(self._chooser[self._chooser_index(rip)])
        taken = global_taken if use_global else local_taken
        return taken

    def speculative_update_history(self, taken: bool) -> None:
        """Shift the predicted outcome into the global history register."""
        self.global_history = ((self.global_history << 1) | int(taken)) & self._history_mask

    def snapshot_history(self) -> int:
        """Return the current global history (checkpointed at rename)."""
        return self.global_history

    def restore_history(self, snapshot: int) -> None:
        """Restore the global history after a squash."""
        self.global_history = snapshot

    def update(self, rip: int, taken: bool, history_at_predict: int) -> None:
        """Train the tables with the resolved outcome of the branch at ``rip``."""
        local_idx = self._local_index(rip)
        global_idx = (rip ^ history_at_predict) % self._global_size
        chooser_idx = self._chooser_index(rip)

        local_correct = SaturatingCounter.is_taken(self._local_table[local_idx]) == taken
        global_correct = SaturatingCounter.is_taken(self._global_table[global_idx]) == taken
        if local_correct != global_correct:
            self._chooser[chooser_idx] = SaturatingCounter.update(
                self._chooser[chooser_idx], global_correct
            )
        self._local_table[local_idx] = SaturatingCounter.update(
            self._local_table[local_idx], taken
        )
        self._global_table[global_idx] = SaturatingCounter.update(
            self._global_table[global_idx], taken
        )
        if self._dirty is not None:
            self._dirty.add(("local", local_idx))
            self._dirty.add(("global", global_idx))
            self._dirty.add(("chooser", chooser_idx))

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Tuple:
        """Capture all pattern tables and the global history register.

        (Named ``snapshot_state`` because :meth:`snapshot_history` already
        names the per-branch history checkpoint used on squashes.)
        Snapshot/restore contract: immutable, picklable, ``==`` iff the
        predictors are bit-identical.  Each table is ``bytes``, one byte
        per 2-bit counter: a checkpoint timeline holds one composed copy
        per checkpoint, and a tuple of ints would take eight times the
        memory.
        """
        return (
            bytes(self._local_table),
            bytes(self._global_table),
            bytes(self._chooser),
            self.global_history,
        )

    def restore_state(self, state: Tuple) -> None:
        """Restore the predictor in place from a :meth:`snapshot_state` value."""
        local, global_, chooser, self.global_history = state
        self._local_table = bytearray(local)
        self._global_table = bytearray(global_)
        self._chooser = bytearray(chooser)
        self._dirty = None

    def begin_dirty_tracking(self) -> None:
        """Start recording mutated table entries (delta checkpoints)."""
        self._dirty = set()

    def drain_dirty(self) -> set:
        """Return and clear the (table, index) pairs mutated since last drain."""
        dirty = self._dirty
        self._dirty = set()
        return dirty if dirty is not None else set()

    def table_value(self, table: str, index: int) -> int:
        """Read one counter of one pattern table (delta capture helper)."""
        if table == "local":
            return self._local_table[index]
        if table == "global":
            return self._global_table[index]
        return self._chooser[index]


class BranchTargetBuffer:
    """Direct-mapped BTB storing predicted targets for indirect control flow."""

    def __init__(self, config: MicroarchConfig):
        self._entries = config.btb_entries
        self._tags: List[Optional[int]] = [None] * self._entries
        self._targets: List[int] = [0] * self._entries
        self._dirty = None

    def _index(self, rip: int) -> int:
        return rip % self._entries

    def lookup(self, rip: int) -> Optional[int]:
        """Return the predicted target for ``rip`` or None on a BTB miss."""
        idx = self._index(rip)
        if self._tags[idx] == rip:
            return self._targets[idx]
        return None

    def update(self, rip: int, target: int) -> None:
        """Install/refresh the target of the control instruction at ``rip``."""
        idx = self._index(rip)
        self._tags[idx] = rip
        self._targets[idx] = target
        if self._dirty is not None:
            self._dirty.add(idx)

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """Capture tags and targets (immutable, picklable, exact)."""
        return tuple(self._tags), tuple(self._targets)

    def restore(self, state: Tuple) -> None:
        """Restore the BTB in place from a :meth:`snapshot` value."""
        tags, targets = state
        self._tags = list(tags)
        self._targets = list(targets)
        self._dirty = None

    def begin_dirty_tracking(self) -> None:
        self._dirty = set()

    def drain_dirty(self) -> set:
        dirty = self._dirty
        self._dirty = set()
        return dirty if dirty is not None else set()

    def entry(self, index: int) -> Tuple[Optional[int], int]:
        """One BTB entry's (tag, target) pair (delta capture helper)."""
        return self._tags[index], self._targets[index]


class BranchUnit:
    """Front-end prediction state bundling the predictor and the BTB."""

    def __init__(self, config: MicroarchConfig):
        self.predictor = TournamentPredictor(config)
        self.btb = BranchTargetBuffer(config)

    def predict_next(self, rip: int, is_conditional: bool, static_target: Optional[int],
                     is_indirect: bool) -> Tuple[int, bool, int]:
        """Predict the next RIP after the control instruction at ``rip``.

        Returns ``(predicted_next_rip, predicted_taken, history_snapshot)``.
        """
        history = self.predictor.snapshot_history()
        if is_conditional:
            taken = self.predictor.predict(rip)
            self.predictor.speculative_update_history(taken)
            if taken and static_target is not None:
                return static_target, True, history
            return rip + 1, taken, history
        if is_indirect:
            predicted = self.btb.lookup(rip)
            if predicted is None:
                predicted = rip + 1
            return predicted, True, history
        # Direct unconditional jump or call: target statically known.
        assert static_target is not None
        return static_target, True, history

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """Capture predictor tables, global history and the BTB."""
        return self.predictor.snapshot_state(), self.btb.snapshot()

    def restore(self, state: Tuple) -> None:
        """Restore the branch unit in place from a :meth:`snapshot` value."""
        predictor_state, btb_state = state
        self.predictor.restore_state(predictor_state)
        self.btb.restore(btb_state)

    # ------------------------------------------------------------------
    # Delta-checkpoint hooks (delegate to predictor and BTB)
    # ------------------------------------------------------------------
    def begin_dirty_tracking(self) -> None:
        self.predictor.begin_dirty_tracking()
        self.btb.begin_dirty_tracking()

    def drain_dirty(self) -> Tuple[set, set]:
        return self.predictor.drain_dirty(), self.btb.drain_dirty()
