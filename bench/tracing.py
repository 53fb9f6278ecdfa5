"""Per-layer tracing from outside permstat.

A Tracer replaces public functions at the names their callers look up (a
module attribute, or an entry of ``stats.REGISTRY``) with wrappers that
record calls, busy time, self time and failures in memory, and puts the
originals back when the ``with`` block ends. Nothing inside permstat
changes, so a traced pass computes exactly what an untraced one does.

Three kinds of wrapper:

- span: times the call. Self time is the call's duration minus the time
  spent in spans it opened; busy time counts only the outermost of
  recursive calls, so it never exceeds wall time.
- count: counts calls only; its time stays in the caller's self time.
- items: counts calls and the items of the iterator the call returns.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass

LAYERS = ("cli", "equidist", "stats", "bijections", "core")

#: the fixed registry names, traced one by one; rmaj:r is traced as stats.rmaj
STAT_NAMES = (
    "des", "exc", "inv", "maj", "fix", "imaj", "ides", "ini",
    "ai", "aid", "lec", "pix", "aix", "mix", "das",
)
MAPS = ("phi", "phi_inverse", "psi", "avoids", "f_insert", "f_uninsert")
SUITES = ("classic", "theorem1", "lemmas-f", "lemmas-g", "psi", "rawlings", "kratt")


@dataclass
class Record:
    layer: str
    calls: int = 0
    items: int = 0
    busy: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    active: int = 0


class Tracer:
    def __init__(self):
        self.records: dict[str, Record] = {}
        self.evaluations = 0  # statistic calls not nested in another statistic
        self._open = [0.0]  # child time accumulated by each open span
        self._stat_depth = 0
        self._undo = []

    def record(self, key: str) -> Record:
        return self.records.setdefault(key, Record(key.split(".", 1)[0]))

    def span(self, key: str, func, statistic: bool = False):
        rec = self.record(key)
        open_spans = self._open
        clock = time.perf_counter
        tracer = self

        def wrapper(*args):
            if statistic:
                if not tracer._stat_depth:
                    tracer.evaluations += 1
                tracer._stat_depth += 1
            open_spans.append(0.0)
            rec.active += 1
            t0 = clock()
            try:
                return func(*args)
            except BaseException:
                rec.failed += 1
                raise
            finally:
                dt = clock() - t0
                rec.active -= 1
                rec.calls += 1
                rec.self_s += dt - open_spans.pop()
                open_spans[-1] += dt
                if not rec.active:
                    rec.busy += dt
                if statistic:
                    tracer._stat_depth -= 1

        return wrapper

    def count(self, key: str, func):
        rec = self.record(key)

        def wrapper(*args):
            rec.calls += 1
            return func(*args)

        return wrapper

    def items(self, key: str, func):
        rec = self.record(key)

        def counted(iterator):
            for item in iterator:
                rec.items += 1
                yield item

        def wrapper(*args):
            iterator = func(*args)
            rec.calls += 1
            return counted(iterator)

        return wrapper

    def patch(self, owner, name: str, wrapper) -> None:
        """Replace owner.name (or owner[name] for a dict) by wrapper until exit."""
        if isinstance(owner, dict):
            original = owner[name]
            owner[name] = (wrapper, original[1])  # REGISTRY: name -> (func, perm_only)
            self._undo.append(lambda: owner.__setitem__(name, original))
        else:
            original = getattr(owner, name)
            setattr(owner, name, wrapper)
            self._undo.append(lambda: setattr(owner, name, original))

    def install(self, permstat) -> None:
        """Wrap every traced function of permstat at each name it is called by."""
        cli, core, equidist = permstat.cli, permstat.core, permstat.equidist
        stats, bijections = permstat.stats, permstat.bijections

        self.patch(cli, "main", self.span("cli.main", cli.main))
        joint = self.span("equidist.joint_distribution", equidist.joint_distribution)
        self.patch(equidist, "joint_distribution", joint)
        self.patch(cli, "joint_distribution", joint)
        self.patch(
            equidist,
            "all_permutations",
            self.items("equidist.all_permutations", equidist.all_permutations),
        )

        for name in STAT_NAMES:
            wrapper = self.span(f"stats.{name}", getattr(stats, name), statistic=True)
            self.patch(stats, name, wrapper)
            self.patch(stats.REGISTRY, name, wrapper)
        self.patch(stats, "rawlings", self.span("stats.rmaj", stats.rawlings, statistic=True))
        self.patch(stats, "stat_vector", self.span("stats.stat_vector", stats.stat_vector))
        self.patch(
            stats,
            "hook_factorization",
            self.count("stats.hook_factorization", stats.hook_factorization),
        )

        for name in MAPS:
            self.patch(bijections, name, self.span(f"bijections.{name}", getattr(bijections, name)))

        split = self.span("core.split_at_min", core.split_at_min)
        self.patch(stats, "split_at_min", split)
        self.patch(bijections, "split_at_min", split)
        self.patch(
            bijections,
            "complement_subword_on",
            self.span("core.complement_subword_on", core.complement_subword_on),
        )
        is_perm = self.count("core.is_permutation", core.is_permutation)
        for owner in (core, stats, cli):
            self.patch(owner, "is_permutation", is_perm)
        self.patch(stats, "inverse", self.count("core.inverse", core.inverse))

    def __enter__(self):
        # Each wrapper adds a frame, so recursive code such as f_uninsert
        # needs twice the depth it needs untraced.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(2 * limit)
        self._undo.append(lambda: sys.setrecursionlimit(limit))
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False

    def metrics(self, wall_s: float, overhead_s: float, domain: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit), for one traced pass that
        took wall_s, overhead_s longer than an untraced one; domain is the
        number of permutations the workload covers."""
        rec = self.record
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        def per(value, base):
            return value / base if base else 0.0

        perms = rec("equidist.all_permutations").items
        layer_self = {layer: 0.0 for layer in LAYERS}
        for r in self.records.values():
            layer_self[r.layer] += r.self_s

        put("cli.main.s", rec("cli.main").busy, "s")
        put("cli.self_s", layer_self["cli"], "s")
        for suite in SUITES:
            put(f"equidist.verify_suite.{suite}.s", rec(f"equidist.verify_suite.{suite}").busy, "s")
        put("equidist.perms_yielded", perms, "count")
        put("equidist.enum_ratio", per(perms, domain), "ratio")
        put("equidist.joint_distribution.calls", rec("equidist.joint_distribution").calls, "count")
        put("equidist.joint_distribution.s", rec("equidist.joint_distribution").busy, "s")
        put("equidist.self_s", layer_self["equidist"], "s")
        for name in STAT_NAMES + ("rmaj",):
            put(f"stats.{name}.calls", rec(f"stats.{name}").calls, "count")
            put(f"stats.{name}.s", rec(f"stats.{name}").busy, "s")
        put("stats.hook_factorization.calls", rec("stats.hook_factorization").calls, "count")
        put("stats.stat_vector.calls", rec("stats.stat_vector").calls, "count")
        put("stats.stat_vector.self_s", rec("stats.stat_vector").self_s, "s")
        put("stats.evals_per_perm", per(self.evaluations, perms), "ratio")
        put("stats.self_s", layer_self["stats"], "s")
        for name in MAPS:
            r = rec(f"bijections.{name}")
            put(f"bijections.{name}.calls", r.calls, "count")
            put(f"bijections.{name}.s", r.busy, "s")
            put(f"bijections.{name}.failed", r.failed, "count")
        put("bijections.phi.calls_per_perm", per(rec("bijections.phi").calls, domain), "ratio")
        put("bijections.psi.calls_per_perm", per(rec("bijections.psi").calls, domain), "ratio")
        put("bijections.self_s", layer_self["bijections"], "s")
        for name in ("split_at_min", "complement_subword_on"):
            put(f"core.{name}.calls", rec(f"core.{name}").calls, "count")
            put(f"core.{name}.s", rec(f"core.{name}").busy, "s")
        put("core.is_permutation.calls", rec("core.is_permutation").calls, "count")
        put("core.inverse.calls", rec("core.inverse").calls, "count")
        put("core.self_s", layer_self["core"], "s")
        put("trace.wall_s", wall_s, "s")
        put("trace.unattributed_s", wall_s - sum(layer_self.values()), "s")
        put("trace_overhead_s", overhead_s, "s")
        return out
