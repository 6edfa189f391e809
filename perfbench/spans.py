"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or -1 for a root. Spans are only
appended to a list while the run is measuring; they are turned into
per-name self times when the run ends.

Calls made from inside the package are traced by replacing the public
functions on every ``mchuff`` module that holds them (``install``) and
putting the originals back afterwards (``uninstall``). The untraced run
never installs anything, so it pays no tracing cost.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

_NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[tuple[str, int]] = []  # (name, slot in spans)
        self._patches: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._patches)

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; does nothing unless installed."""
        if not self.active:
            yield
            return
        parent = self._open[-1][1] if self._open else _NO_PARENT
        slot = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append((name, slot))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[slot] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        """``fn`` recording one span per outermost call.

        A call made while a span of the same name is innermost (recursion,
        or one serializer calling another) runs untraced, so recursive
        functions cost one span per top-level call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open and self._open[-1][0] == name:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, modules, targets) -> None:
        """Replace each target on every module or class that holds it.

        ``targets`` maps span names to lists of (owner, attribute) pairs
        naming where the original is defined. The defining attribute and
        every module-level alias of the same object in ``modules`` (names
        bound by ``from .x import y``) are patched.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, places in targets.items():
            for owner, attr in places:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                    continue
                traced = self.wrap(name, raw)
                self._patch(owner, attr, traced)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, alias, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus its direct children's.

    Spans of one thread nest, so a span's direct children cover disjoint
    parts of its interval, and the self times of all spans add up to the
    total duration of the root spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent != _NO_PARENT:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
    return dict(out)


def root_time(spans) -> float:
    return sum(end - start for _, start, end, parent in spans if parent == _NO_PARENT)
