"""Spans and counters wrapped around lindgap's layers from outside the package.

`Tracer.install()` replaces the public functions of each layer module, under
every module name that imports them, with wrappers that record calls,
total time and self time (span time minus wrapped child spans).  Functions
called thousands of times per command are only counted, so that the
wrappers do not swamp the work they measure.  `uninstall()` restores the
originals; nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("operators", "lindblad", "spectral", "certify", "evolve", "models",
          "modelspec", "cli")

# Called once per basis operator or jump (thousands of times per command);
# counted without spans.
COUNT_ONLY = frozenset({
    "operators.dag", "operators.as_square_matrix", "operators.vec",
    "operators.unvec", "models.matrix_unit",
})


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _frame_key(state, s) -> tuple:
    return (_digest(state.matrix), float(s))


def _generator_key(L, frame) -> tuple:
    jumps = tuple((float(w), _digest(J)) for w, J in L.jumps)
    return (_digest(L.hamiltonian), float(L.alpha), jumps,
            _frame_key(frame.state, frame.s))


class Tracer:
    """Per-name call counts, total and self seconds, plus redundancy counts.

    Redundancy is counted per CLI call: `per_command[(cmd, "frames")]` is the
    number of KmsFrame constructions during calls of `cmd`, and `distinct`
    counts the (state, s) pairs and (generator, frame, restricted) triples
    that were new within the CLI call that built them.
    """

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.per_command: Counter = Counter()
        self.distinct: Counter = Counter()
        self._children: list[float] = []
        self._command = None
        self._seen: defaultdict = defaultdict(set)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            tracer.calls[name] += 1
            stack = tracer._children
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                tracer.total_s[name] += dt
                tracer.self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _note(self, what: str, key=None) -> None:
        self.per_command[(self._command, what)] += 1
        if key is not None and key not in self._seen[what]:
            self._seen[what].add(key)
            self.distinct[what] += 1

    # -- hooks ----------------------------------------------------------------

    def _on_main(self, argv=None, *_a, **_k) -> None:
        self._command = argv[0] if argv else None
        self._seen.clear()

    def _on_frame(self, _self, state, s=0.5) -> None:
        self._note("frames", _frame_key(state, s))

    def _on_superop(self, *_a, **_k) -> None:
        self._note("superops")

    def _on_generator(self, L, frame, restricted=True) -> None:
        self._note("generators", _generator_key(L, frame) + (bool(restricted),))

    # -- patching -------------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Point every lindgap module attribute bound to `original` at `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lindgap"
                                   or modname.startswith("lindgap.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import lindgap.cli  # noqa: F401  (imports every layer module)
        from lindgap.lindblad import Lindbladian
        from lindgap.operators import KmsFrame

        hooks = {"cli.main": self._on_main,
                 "operators.superop_matrix": self._on_superop,
                 "lindblad.generator_matrix": self._on_generator}
        for layer in LAYERS:
            mod = sys.modules[f"lindgap.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = (self._counter(name, fn) if name in COUNT_ONLY
                           else self._span(name, fn, hooks.get(name)))
                self._replace(fn, wrapper)
        self._patch_attr(KmsFrame, "__init__",
                         self._span("operators.KmsFrame", KmsFrame.__init__,
                                    self._on_frame))
        self._patch_attr(KmsFrame, "coords",
                         self._counter("operators.KmsFrame.coords",
                                       KmsFrame.coords))
        self._patch_attr(Lindbladian, "apply",
                         self._span("lindblad.Lindbladian.apply",
                                    Lindbladian.apply))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
