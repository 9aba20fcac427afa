"""Per-layer tracing from outside the library.

``Tracer.install()`` wraps every public function of every loaded
``opchain`` module, and the public methods of classes those modules
define, then rebinds each wrapper wherever the original is bound: the
defining module, every module that imported it by name, and module-level
dicts such as dispatch tables.  Nothing inside ``opchain`` is edited.

Each wrapped call is a span.  Spans nest through an explicit stack; a
span's self time is its duration minus the time its child spans cover.
Per-name totals (``stats``) are kept in memory and read out once at the end.  Very hot
tiny callables are counted but not timed, so their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Called per coefficient or per stream element; timing them would cost more
# than the call itself.
COUNT_ONLY = frozenset({
    "scalars.coerce_exact", "scalars.format_scalar", "scalars.parse_rational",
    "scalars.is_exact", "scalars.as_float",
    "streams.CoeffStream.__getitem__", "streams.CoeffStream.window",
    "chains.GammaSeq.at", "chains.ChainSequence.at", "chains.ParameterSeq.__getitem__",
    "systems.ThreeTermSystem.b_at", "systems.ThreeTermSystem.a2_at",
    "poly.Polynomial.coefficient", "poly.Polynomial.is_zero", "poly.Polynomial.is_monic",
})

# Dunder methods that carry arithmetic or construction work.
DUNDERS = ("__init__", "__call__", "__getitem__", "__add__", "__sub__", "__mul__",
           "__neg__", "__eq__")


class Tracer:
    def __init__(self):
        self.stats = {}        # name -> [calls, total_s, self_s]
        self._stack = []       # child-time accumulators of the open spans
        self._on = [True]
        self._originals = {}   # id(original) -> (original, wrapper)

    # -- spans ------------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _timed(self, name, fn):
        st, stack, on, clock = self._stat(name), self._stack, self._on, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def _counted(self, name, fn):
        st, on = self._stat(name), self._on

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on[0]:
                st[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named ``name`` (used for the op itself)."""
        return self._timed(name, fn)(*args, **kwargs)

    def pause(self):
        self._on[0] = False

    def resume(self):
        self._on[0] = True

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn):
        if id(fn) in self._originals:
            return self._originals[id(fn)][1]
        make = self._counted if name in COUNT_ONLY else self._timed
        wrapper = make(name, fn)
        self._originals[id(fn)] = (fn, wrapper)
        return wrapper

    def install(self):
        """Wrap and rebind; returns the number of callables wrapped."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n.startswith("opchain.") and m is not None]
        for mod in mods:
            short = mod.__name__[len("opchain."):]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        pkg = sys.modules["opchain"]
        for mod in mods + [pkg]:
            self._rebind(mod)
        return len(self._originals)

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def _rebind(self, mod):
        for attr, obj in list(vars(mod).items()):
            hit = self._originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    hit = self._originals.get(id(val))
                    if hit is not None and hit[0] is val:
                        obj[key] = hit[1]

    def unwrapped_bindings(self) -> list:
        """Module attributes or dict entries still bound to an original."""
        left = []
        for n, mod in sys.modules.items():
            if mod is None or not (n == "opchain" or n.startswith("opchain.")):
                continue
            for attr, obj in vars(mod).items():
                vals = obj.items() if isinstance(obj, dict) else [(attr, obj)]
                for key, val in vals:
                    hit = self._originals.get(id(val))
                    if hit is not None and hit[0] is val:
                        where = f"[{key}]" if isinstance(obj, dict) else ""
                        left.append(f"{n}.{attr}{where}")
        return left
