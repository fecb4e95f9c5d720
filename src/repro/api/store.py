"""Directory-backed persistence for campaign outcomes.

A :class:`ResultStore` maps run identities to JSON artifacts: one
``<run_id>.json`` file per campaign under a root directory.  Writes are
atomic (write-to-temp, fsync, then rename, then parent-directory fsync)
so a store shared by concurrent processes never exposes a
half-written artifact and a crash immediately after :meth:`~ResultStore.save`
returns cannot roll the file back.  Read failures — a missing artifact,
torn or foreign JSON, a payload that no longer matches the outcome schema
— surface as a typed :class:`StoreError` naming the run id, never as a raw
``FileNotFoundError``/``JSONDecodeError`` leaking into callers like
``repro report``.

All filesystem access goes through the injectable
:class:`~repro.resilience.fs.Fs` seam (default: the real filesystem), so
the seeded :class:`~repro.resilience.faultfs.FaultFs` can exercise every
write path under ENOSPC/EIO/torn-write/crash faults.  Transient disk
errors are absorbed by a :class:`~repro.resilience.retry.RetryPolicy`;
*persistent* ENOSPC surfaces as :class:`StoreUnavailableError`, which the
CLI renders as a one-line actionable error.
"""

from __future__ import annotations

import errno
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro import obs
from repro.api.result import CampaignOutcome
from repro.resilience.fs import (
    Fs,
    SimulatedCrash,
    default_fs,
    register_crash_point,
)
from repro.resilience.retry import RetryPolicy, disk_retry_policy

#: Crash points inside :func:`atomic_write` (scope is caller-chosen so the
#: artifact cache's write path enumerates separately from the store's).
CRASH_STORE_PRE_REPLACE = register_crash_point(
    "store.save.pre_replace",
    "temp file written and fsynced, atomic rename not yet performed",
)
CRASH_STORE_POST_REPLACE = register_crash_point(
    "store.save.post_replace",
    "atomic rename done, parent directory not yet fsynced",
)


class StoreError(Exception):
    """A stored outcome could not be read (missing, torn, or foreign)."""

    def __init__(self, run_id: str, path: Path, reason: str):
        self.run_id = run_id
        self.path = path
        self.reason = reason
        super().__init__(f"stored outcome {run_id!r} ({path}): {reason}")


class StoreUnavailableError(StoreError):
    """The store cannot accept writes (persistent ENOSPC after retries).

    Subclasses :class:`StoreError` so the CLI's existing one-line error
    handler renders it; the message is deliberately actionable.
    """

    def __init__(self, run_id: str, path: Path, attempts: int):
        self.attempts = attempts
        super().__init__(
            run_id, path,
            f"no space left on device after {attempts} attempts — "
            f"free disk space under {path.parent} or point --store at "
            f"another volume, then re-run (the campaign journal is intact "
            f"and `repro resume` will pick up where it left off)",
        )


def validate_run_id(run_id: str) -> str:
    """Reject ids that could escape their directory; return the id."""
    if not run_id or any(ch in run_id for ch in "/\\") or run_id.startswith("."):
        raise ValueError(f"malformed run id {run_id!r}")
    return run_id


def _count_disk_retry(attempt: int, failure: BaseException) -> None:
    obs_ctx = obs.active()
    if obs_ctx is not None:
        obs_ctx.disk_retry()


def atomic_write(path: Path, data: Union[str, bytes],
                 fs: Optional[Fs] = None,
                 crash_scope: str = "store.save",
                 retry: Optional[RetryPolicy] = None) -> None:
    """Write ``data`` to ``path`` atomically and durably.

    Temp file in the target directory (so the rename never crosses
    filesystems), fsynced before the rename, parent directory fsynced
    after it — a crash at any instant leaves either the old file or the
    complete new one, never a torn or vanishing artifact.  Concurrent
    writers of the same path race benignly (last rename wins, each file
    complete).  Shared by the result store, the artifact cache, and
    anything else persisting derived state.

    ``crash_scope`` names the registered crash points exercised
    (``<scope>.pre_replace`` / ``<scope>.post_replace``); ``retry``
    absorbs transient disk faults by restarting the whole
    write-temp-and-rename sequence (the temp file from a failed attempt
    is removed, so retries never leak).
    """
    active_fs = fs if fs is not None else default_fs()
    binary = isinstance(data, bytes)

    def write_once() -> None:
        stream, temp_name = active_fs.mkstemp(
            path.parent, ".tmp-", path.suffix, binary
        )
        try:
            with stream:
                stream.write(data)
                stream.flush()
                active_fs.fsync(stream)
            active_fs.crash_point(crash_scope + ".pre_replace")
            active_fs.replace(temp_name, path)
        except SimulatedCrash:
            raise  # a real kill -9 leaves the temp file behind; so do we
        except BaseException:
            try:
                active_fs.unlink(temp_name, missing_ok=True)
            except OSError:
                pass
            raise
        active_fs.crash_point(crash_scope + ".post_replace")
        active_fs.fsync_dir(path.parent)

    if retry is None:
        write_once()
    else:
        retry.run(write_once, describe=f"atomic write {path.name}",
                  on_retry=_count_disk_retry)


class ResultStore:
    """Persist and reload :class:`CampaignOutcome` artifacts by run id."""

    def __init__(self, root: Union[str, Path],
                 fs: Optional[Fs] = None,
                 retry: Optional[RetryPolicy] = None):
        self.root = Path(root)
        self.fs = fs if fs is not None else default_fs()
        self.retry = retry if retry is not None else disk_retry_policy()
        self.retry.run(
            lambda: self.fs.mkdir(self.root, parents=True, exist_ok=True),
            describe=f"create store root {self.root}",
            on_retry=_count_disk_retry,
        )

    # ------------------------------------------------------------------
    def _path(self, run_id: str) -> Path:
        return self.root / f"{validate_run_id(run_id)}.json"

    def has(self, run_id: str) -> bool:
        return self.fs.exists(self._path(run_id))

    def _atomic_write(self, run_id: str, path: Path, payload: str) -> None:
        try:
            atomic_write(path, payload, fs=self.fs, crash_scope="store.save",
                         retry=self.retry)
        except OSError as failure:
            if failure.errno == errno.ENOSPC:
                raise StoreUnavailableError(
                    run_id, path, self.retry.max_attempts
                ) from failure
            raise

    def save(self, outcome: CampaignOutcome) -> Path:
        """Atomically write ``outcome`` as ``<run_id>.json`` and return the path.

        Transient disk errors are retried; persistent ENOSPC raises
        :class:`StoreUnavailableError` (the journal, if any, is untouched,
        so the campaign stays resumable once space is freed).
        """
        path = self._path(outcome.run_id)
        payload = json.dumps(outcome.to_dict(), indent=2, sort_keys=True)
        self._atomic_write(outcome.run_id, path, payload + "\n")
        return path

    def load(self, run_id: str) -> CampaignOutcome:
        """Load one stored outcome; raise :class:`StoreError` when unreadable."""
        path = self._path(run_id)
        try:
            with self.fs.open(path, "r", encoding="utf-8") as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            raise StoreError(run_id, path, "no such stored outcome") from None
        except json.JSONDecodeError as failure:
            raise StoreError(run_id, path, f"not valid JSON ({failure})") from failure
        try:
            return CampaignOutcome.from_dict(payload)
        except (KeyError, TypeError, ValueError) as failure:
            raise StoreError(
                run_id, path, f"not a campaign outcome ({failure!r})"
            ) from failure

    def get(self, run_id: str) -> Optional[CampaignOutcome]:
        """Like :meth:`load` but returns ``None`` when the artifact is absent."""
        if not self.has(run_id):
            return None
        return self.load(run_id)

    def delete(self, run_id: str) -> bool:
        """Remove one stored outcome; ``False`` if it was already gone.

        ENOENT-race safe: a concurrent delete of the same id means the
        artifact is gone either way, so the loser reports ``False``
        instead of raising.
        """
        return self.fs.unlink(self._path(run_id), missing_ok=True)

    # ------------------------------------------------------------------
    # Metrics sidecars: one observability snapshot per run id, kept in a
    # ``metrics/`` subdirectory so :meth:`run_ids` (which globs the root)
    # never lists a sidecar as a campaign.  Sidecars are measurement-layer
    # data — deleting one can never invalidate the outcome it rode with.
    # ------------------------------------------------------------------
    def metrics_path(self, run_id: str) -> Path:
        return self.root / "metrics" / f"{validate_run_id(run_id)}.json"

    def has_metrics(self, run_id: str) -> bool:
        return self.fs.exists(self.metrics_path(run_id))

    def save_metrics(self, run_id: str, snapshot: Dict[str, Any]) -> Path:
        """Atomically persist one run's metrics snapshot; return the path."""
        path = self.metrics_path(run_id)
        self.retry.run(
            lambda: self.fs.mkdir(path.parent, parents=True, exist_ok=True),
            describe="create store metrics dir",
            on_retry=_count_disk_retry,
        )
        payload = json.dumps(snapshot, indent=2, sort_keys=True)
        self._atomic_write(run_id, path, payload + "\n")
        return path

    def load_metrics(self, run_id: str) -> Dict[str, Any]:
        """Load one run's metrics snapshot; :class:`StoreError` when unreadable."""
        path = self.metrics_path(run_id)
        try:
            with self.fs.open(path, "r", encoding="utf-8") as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            raise StoreError(
                run_id, path, "no metrics snapshot for this run"
            ) from None
        except json.JSONDecodeError as failure:
            raise StoreError(
                run_id, path, f"not valid JSON ({failure})"
            ) from failure
        if not isinstance(payload, dict):
            raise StoreError(run_id, path, "not a metrics snapshot")
        return payload

    # ------------------------------------------------------------------
    def run_ids(self) -> List[str]:
        """Stored run ids, sorted for stable listings.

        Temp files from in-flight (or killed) :meth:`save` calls are
        dot-prefixed ``.tmp-*`` names and never listed.
        """
        return sorted(
            path.stem for path in self.fs.glob(self.root, "*.json")
            if not path.name.startswith(".")
        )

    def _fs_now(self) -> float:
        """The store filesystem's idea of "now".

        Ages are computed against a freshly created probe file's mtime
        rather than ``time.time()``: the two clocks can disagree (NFS
        servers, clock steps between runs), and an age derived from the
        wrong clock domain could make :meth:`gc` sweep a live writer's
        temp file.  Falls back to the wall clock if the probe fails.
        """
        probe = self.root / f".tmp-gc-probe-{os.getpid()}"
        try:
            self.fs.touch(probe)
            return self.fs.stat(probe).st_mtime
        except OSError:
            return time.time()
        finally:
            try:
                self.fs.unlink(probe, missing_ok=True)
            except OSError:
                pass

    def gc(self, max_age_seconds: float = 3600.0) -> int:
        """Remove stale ``.tmp-*`` files left by killed writers.

        Returns the number of files removed.  Only temp files *strictly
        older* than ``max_age_seconds`` are touched: an atomic write
        completes in milliseconds, so a younger temp file may belong to
        a *live* writer whose rename must not be sabotaged.  Ages are
        measured in the store filesystem's own clock domain (see
        :meth:`_fs_now`), and a file dated in the future — negative age,
        as after a clock step — is never collected.  A file that vanishes
        between the listing and the unlink (concurrent gc, or the writer's
        own rename) is simply skipped.  Pass ``0`` to sweep everything
        when no writers can be running.
        """
        removed = 0
        now = self._fs_now()
        for path in self.fs.glob(self.root, ".tmp-*"):
            try:
                age = now - self.fs.stat(path).st_mtime
                if not age > max_age_seconds:
                    continue
                if not self.fs.unlink(path, missing_ok=True):
                    continue
            except OSError:
                continue
            removed += 1
        return removed

    def __iter__(self) -> Iterator[CampaignOutcome]:
        for run_id in self.run_ids():
            yield self.load(run_id)

    def __len__(self) -> int:
        return len(self.run_ids())

    def describe(self) -> str:
        return f"ResultStore({self.root}, {len(self)} outcomes)"
