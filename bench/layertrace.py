"""Per-layer tracing of congwit from outside the package.

Each traced callable is replaced, for the duration of a traced operation,
by a wrapper that counts calls and accumulates self time: the call's wall
time minus the wall time of traced calls made inside it.  A callable is
patched in every congwit module namespace that holds it (``mat_mul`` is
bound in ``quotients``, ``parabolics`` and ``selftest`` as well as in
``matrices``), so calls through an imported name are counted too.  Spans
are not kept: only per-callable aggregates, plus the wall time of each call
for the callables whose latency distribution is reported.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (metric prefix, defining module, attributes, keep per-call durations)
# An attribute "Class.name" patches a method or property on the class; a
# list of attributes folds several functions into one metric.
TARGETS = (
    ("rings.ResidueRing.modulus", "congwit.rings", ("ResidueRing.modulus",), False),
    ("rings.unit_of_order", "congwit.rings", ("unit_of_order",), False),
    ("matrices.SLMat", "congwit.matrices", ("SLMat.__post_init__",), False),
    ("matrices.mat_mul", "congwit.matrices", ("mat_mul",), False),
    ("matrices.mat_inv", "congwit.matrices", ("mat_inv",), False),
    ("matrices.scalar_mul", "congwit.matrices", ("scalar_mul",), False),
    ("matrices.from_rows", "congwit.matrices", ("from_rows",), False),
    ("parabolics.graph_automorphism", "congwit.parabolics", ("graph_automorphism",), True),
    (
        "parabolics.graph_automorphism_inverse",
        "congwit.parabolics",
        ("graph_automorphism_inverse",),
        False,
    ),
    ("parabolics.fixed_lines", "congwit.parabolics", ("fixed_lines",), False),
    ("quotients.sample", "congwit.quotients", ("FiniteQuotientGroup.sample",), True),
    ("quotients.member", "congwit.quotients", ("FiniteQuotientGroup.member",), True),
    ("quotients.tuple_mul", "congwit.quotients", ("tuple_mul",), False),
    ("quotients.enumerate_quotient", "congwit.quotients", ("enumerate_quotient",), False),
    ("twists.apply", "congwit.twists", ("QuotientIso.apply",), True),
    ("twists.child_seed", "congwit.twists", ("child_seed",), False),
    ("twists.verify_iso", "congwit.twists", ("verify_iso",), False),
    (
        "presets.build",
        "congwit.presets",
        ("method_a_pair", "method_b_pair", "method_c_pair", "s16_pair"),
        False,
    ),
    ("presets.obstruction_report", "congwit.presets", ("obstruction_report",), False),
    ("serialize.bundle_from_json", "congwit.serialize", ("bundle_from_json",), False),
    ("serialize.bundle_to_json", "congwit.serialize", ("bundle_to_json",), False),
    ("serialize.dumps_canonical", "congwit.serialize", ("dumps_canonical",), False),
    ("cli.main", "congwit.cli", ("main",), False),
)


@dataclass
class Stat:
    count: int = 0
    self_s: float = 0.0
    durations: list[float] | None = None


@dataclass
class Tracer:
    """Installs and removes the wrappers; stats accumulate across installs."""

    stats: dict[str, Stat] = field(default_factory=dict)
    _stack: list[float] = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def __post_init__(self):
        for prefix, _, _, keep in TARGETS:
            self.stats[prefix] = Stat(durations=[] if keep else None)

    def _wrap(self, stat: Stat, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.count += 1
                stat.self_s += elapsed - child
                if stat.durations is not None:
                    stat.durations.append(elapsed)
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "congwit"]
        for prefix, module_name, attrs, _ in TARGETS:
            home = sys.modules[module_name]
            stat = self.stats[prefix]
            for attr in attrs:
                if "." in attr:
                    cls_name, name = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[name]
                    if isinstance(original, property):
                        patched = property(self._wrap(stat, original.fget))
                    else:
                        patched = self._wrap(stat, original)
                    setattr(cls, name, patched)
                    self._undo.append((cls, name, original))
                    continue
                original = getattr(home, attr)
                patched = self._wrap(stat, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, patched)
                            self._undo.append((mod, key, original))

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
