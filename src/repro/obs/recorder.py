"""One recorder protocol for every capture layer.

The metrics registry and the four simulator recorders (flight recorder,
time series, link state, flow stats) share one life cycle, defined here
once:

- **Recorder** — the base of every recorder class: ``snapshot()`` turns
  what was recorded into a plain dict, ``merge(snap)`` folds a snapshot
  back in (run ids offset, so merging per-task snapshots in task order
  reproduces a serial run's record byte for byte), and ``config()``
  returns the construction parameters that rebuild an empty twin in a
  pool worker.
- **Slot** — one recorder kind's process-wide state: the active recorder
  or ``None``.  Instrumented code reads :meth:`Slot.active` once (the
  engines at construction) and pays nothing while it is ``None``.
  ``enable`` / ``disable`` / ``capture`` install, clear and scope the
  recorder; ``config`` is a dict while a recorder is on and ``None``
  while it is off, so every caller tests ``is not None``; ``save`` /
  ``load`` persist snapshots as compressed ``.npz`` files.  Each
  recorder module binds its public functions (``trace.enable``,
  ``linkstate.save_linkstate``, ...) from its slot.
- **The registry** — :data:`NAMES`, the recorder kinds in the order
  callers enable, capture and merge them.  Code that moves telemetry
  across a process or lane boundary loops over it: :func:`configs` reads
  the enabled recorders as a ``{name: config}`` map, :func:`capture_all`
  runs a block under fresh recorders built from such a map, and
  :func:`merge_all` / :func:`fold` merge ``{name: snapshot}`` maps.
"""

from __future__ import annotations

import importlib
import json
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "NAMES",
    "Recorder",
    "Slot",
    "slot",
    "slots",
    "configs",
    "enable_all",
    "disable_all",
    "capture_all",
    "merge_all",
    "fold",
]

#: Every recorder kind, by module name under :mod:`repro.obs`, in
#: registry order.
NAMES = ("metrics", "trace", "timeseries", "linkstate", "flowstats")


class Recorder:
    """Base class of the recorders held by a :class:`Slot`."""

    #: The ``format`` tag of this recorder's snapshots and ``.npz`` files.
    FORMAT = ""

    def config(self) -> dict:
        """Construction parameters of an empty twin (for pool workers)."""
        return {}

    def snapshot(self) -> dict:
        raise NotImplementedError

    def merge(self, snap: Mapping) -> None:
        raise NotImplementedError

    def _check_format(self, snap: Mapping) -> None:
        if snap.get("format") != self.FORMAT:
            raise ConfigurationError(
                f"cannot merge a snapshot of format {snap.get('format')!r} "
                f"into a {self.FORMAT} recorder"
            )


class Slot:
    """The process's active recorder of one kind, or ``None``.

    ``factory`` builds a fresh recorder from a :meth:`config` dict; its
    ``FORMAT`` tags the files :meth:`save` writes.
    """

    def __init__(self, name: str, factory):
        self.name = name
        self.factory = factory
        self._active = None

    def enable(self, **kwargs):
        """Install (and return) a fresh active recorder."""
        self._active = self.factory(**kwargs)
        return self._active

    def disable(self) -> None:
        """Turn the recorder off; code set up after this pays nothing."""
        self._active = None

    def enabled(self) -> bool:
        return self._active is not None

    def active(self):
        return self._active

    def config(self) -> Optional[dict]:
        """The active recorder's :meth:`Recorder.config`, ``None`` when off."""
        rec = self._active
        return None if rec is None else rec.config()

    @contextmanager
    def capture(self, **kwargs) -> Iterator:
        """Divert recording to a fresh recorder for the block.

        Pool workers and batched lanes scope one task's record with this
        (parameterised by the parent's :meth:`config`); the previous
        state is restored on exit.
        """
        prev = self._active
        fresh = self._active = self.factory(**kwargs)
        try:
            yield fresh
        finally:
            self._active = prev

    def snapshot(self) -> Optional[dict]:
        """Snapshot of the active recorder, or ``None`` when off."""
        rec = self._active
        return None if rec is None else rec.snapshot()

    def merge_snapshot(self, snap: Optional[Mapping]) -> None:
        """Merge a snapshot into the active recorder (no-op if either
        side is absent)."""
        rec = self._active
        if rec is not None and snap is not None:
            rec.merge(snap)

    def save(self, path, snap: Optional[Mapping] = None) -> Optional[Path]:
        """Write ``snap`` (default: the active recorder's snapshot) as a
        compressed ``.npz``; returns the path, or ``None`` when there is
        nothing to write because the recorder is off.

        The ``runs`` metadata list is stored as one JSON string.
        """
        if snap is None:
            snap = self.snapshot()
            if snap is None:
                return None
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(snap)
        doc["runs"] = json.dumps(doc.get("runs", []))
        np.savez_compressed(path, **doc)
        return path

    def load(self, path) -> dict:
        """Load a :meth:`save` file back into snapshot form.

        Scalar members come back as Python values (``int``, ``str``),
        ``runs`` as the list of run metadata dicts; a file of another
        recorder's format is rejected.
        """
        with np.load(path, allow_pickle=False) as data:
            snap = {}
            for key in data.files:
                arr = data[key]
                snap[key] = arr.item() if arr.ndim == 0 else arr
        snap["runs"] = json.loads(str(snap.get("runs", "[]")))
        snap["format"] = str(snap.get("format", ""))
        fmt = self.factory.FORMAT
        if snap["format"] != fmt:
            raise ConfigurationError(
                f"{path} is not a {fmt} file (format={snap['format']!r})"
            )
        return snap


# ------------------------------------------------------------ registry
def slot(name: str) -> Slot:
    """The slot of one registered recorder kind."""
    if name not in NAMES:
        raise ConfigurationError(
            f"unknown recorder {name!r}; choose from {NAMES}"
        )
    return importlib.import_module(f"repro.obs.{name}").SLOT


def slots() -> Tuple[Slot, ...]:
    """Every registered slot, in registry order."""
    return tuple(slot(name) for name in NAMES)


def configs() -> Dict[str, dict]:
    """``{name: config}`` of every enabled recorder, in registry order."""
    out = {}
    for s in slots():
        cfg = s.config()
        if cfg is not None:
            out[s.name] = cfg
    return out


def enable_all(cfgs: Mapping[str, dict]) -> None:
    """Enable a fresh recorder for every entry of a ``{name: config}`` map."""
    for name, cfg in cfgs.items():
        slot(name).enable(**cfg)


def disable_all() -> None:
    """Turn every registered recorder off."""
    for s in slots():
        s.disable()


@contextmanager
def capture_all(cfgs: Mapping[str, dict]) -> Iterator[Dict[str, Recorder]]:
    """Run the block under fresh recorders built from ``cfgs``.

    Yields ``{name: recorder}``; every slot's previous state is restored
    on exit.
    """
    with ExitStack() as stack:
        yield {
            name: stack.enter_context(slot(name).capture(**cfg))
            for name, cfg in cfgs.items()
        }


def merge_all(snaps: Mapping[str, Optional[Mapping]]) -> None:
    """Merge a ``{name: snapshot}`` map into the active recorders."""
    for name, snap in snaps.items():
        slot(name).merge_snapshot(snap)


def fold(
    cfgs: Mapping[str, dict], seq: Iterable[Mapping[str, Mapping]]
) -> Dict[str, dict]:
    """Merge ``{name: snapshot}`` maps, in order, into one such map."""
    with capture_all(cfgs) as recs:
        for snaps in seq:
            merge_all(snaps)
        return {name: rec.snapshot() for name, rec in recs.items()}
