"""Span tracing of the thetalab layers, from outside the package.

``Tracer.install`` wraps the public functions of each layer module and
rebinds every reference to them in every ``thetalab`` module namespace (for
example ``search.exact_rank`` and ``cli.count_torsion`` are references of
their own), so calls between layers pass through the wrappers.  Spans are
kept in flat in-memory lists and written out at the end; ``layer_metrics``
turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "theta", "characteristics", "matrices", "search", "bounds")

# Leaf helpers called up to 10^5 times per op at about a microsecond a call:
# a wrapper would cost as much as the call, so their time stays in the
# caller's self time.
UNTRACED = {
    "characteristics.symplectic_pairing",
    "characteristics.quadratic_class",
    "characteristics.parity",
}


def _lattice_points(args, kwargs, result):
    tau = kwargs.get("tau", args[0] if args else None)
    return (2 * result.radius_used + 1) ** tau.g


# Counts taken from return values (or, for the mod-p screen, the batch shape).
COUNTERS = {
    "theta.theta": _lattice_points,
    "theta.count_torsion": lambda a, k, r: int(r.certified),
    "search.h0_probe": lambda a, k, r: r.budget_used,
    "search.batched_rank_mod_p": lambda a, k, r: int(a[0].shape[0]),
}


class Tracer:
    """In-memory span recorder: name, start, end, parent span and op id."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.ops = []
        self.starts = []
        self.ends = []
        self.values = {}
        self.errors = {}
        self.op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        values, errors = self.values, self.errors
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[sid] = type(exc).__name__
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                values[sid] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "thetalab" or n.startswith("thetalab.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"thetalab.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrapped[fn] = self._wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path):
        """One JSON array per span: id, parent, op, name, start_ns, end_ns."""
        origin = self.starts[0] if self.starts else 0
        with open(path, "w") as fh:
            for sid, row in enumerate(zip(self.parents, self.ops, self.names, self.starts, self.ends)):
                parent, op, name, start, end = row
                fh.write(json.dumps([sid, parent, op, name, start - origin, end - origin]) + "\n")


def _outermost(ids, names, parents, group):
    """Spans of ids with no ancestor whose name is in group."""
    keep = []
    for sid in ids:
        p = parents[sid]
        while p >= 0 and names[p] not in group:
            p = parents[p]
        if p < 0:
            keep.append(sid)
    return keep


def layer_metrics(tracer: Tracer, nops: int):
    """Per-layer metrics (per op unless the unit says otherwise) as
    {name: (value, unit)}."""
    names, parents = tracer.names, tracer.parents
    dur = np.array(tracer.ends, dtype=np.int64) - np.array(tracer.starts, dtype=np.int64)
    par = np.array(parents, dtype=np.int64)
    child = np.zeros_like(dur)
    has_parent = par >= 0
    np.add.at(child, par[has_parent], dur[has_parent])
    self_ns = dur - child

    by_name = {}
    for sid, name in enumerate(names):
        by_name.setdefault(name, []).append(sid)

    def ids(*group):
        return [sid for name in group for sid in by_name.get(name, ())]

    def calls(*group):
        return len(ids(*group))

    def busy_ms(*group):
        top = _outermost(ids(*group), names, parents, set(group))
        return float(dur[top].sum()) / 1e6

    def self_ms(*group):
        return float(self_ns[ids(*group)].sum()) / 1e6

    def value_sum(name):
        return float(sum(tracer.values.get(sid, 0) for sid in ids(name)))

    def ratio(num, den):
        return num / den if den else 0.0

    def parent_is(sid, name):
        return parents[sid] >= 0 and names[parents[sid]] == name

    n = max(nops, 1)
    cli_names = [name for name in by_name if name.startswith("cli.")]
    builds = ("matrices.build_M", "matrices.build_B", "matrices.build_L", "matrices.build_Bk")
    residuals = (
        "theta.fay_relation_residual",
        "theta.addition_residual",
        "theta.qh_rank_profile",
        "theta.m_count",
    )

    theta_calls = calls("theta.theta")
    theta_ms = busy_ms("theta.theta")
    count_ops = [sid for sid in ids("theta.count_torsion") if parent_is(sid, "cli.cmd_count")]
    undecided = sum(tracer.errors.get(sid) == "AmbiguousVanishingError" for sid in count_ops)
    certified = sum(tracer.values.get(sid, 0) for sid in count_ops)
    rank_calls = calls("matrices.exact_rank")
    rank_ms = busy_ms("matrices.exact_rank")
    masks = value_sum("search.h0_probe")
    probe_s = busy_ms("search.h0_probe") / 1e3
    screened = value_sum("search.batched_rank_mod_p")
    modp_ms = busy_ms("search.batched_rank_mod_p")
    confirms = sum(parent_is(sid, "search.h0_probe") for sid in ids("search.principal_rank"))

    return {
        "op.busy_ms": (busy_ms("cli.main") / n, "ms"),
        "cli.self_ms": (self_ms(*cli_names) / n, "ms"),
        "theta.calls": (theta_calls / n, "count"),
        "theta.busy_ms": (theta_ms / n, "ms"),
        "theta.us_per_call": (ratio(theta_ms * 1e3, theta_calls), "us"),
        "theta.lattice_points": (ratio(value_sum("theta.theta"), theta_calls), "count"),
        "theta.table_self_ms": (self_ms("theta.constant_table", "theta.count_torsion") / n, "ms"),
        "theta.classify_ms": (busy_ms("theta.classify_magnitudes") / n, "ms"),
        "theta.residual_self_ms": (self_ms(*residuals) / n, "ms"),
        "theta.undecided_frac": (ratio(undecided, len(count_ops)), "ratio"),
        "theta.certified_frac": (ratio(certified, len(count_ops)), "ratio"),
        "characteristics.act.calls": (calls("characteristics.act") / n, "count"),
        "characteristics.act.busy_ms": (busy_ms("characteristics.act") / n, "ms"),
        "characteristics.orbits.self_ms": (self_ms("characteristics.orbits") / n, "ms"),
        "characteristics.enumerate.busy_ms": (
            busy_ms("characteristics.enumerate_characteristics") / n,
            "ms",
        ),
        "matrices.build.calls": (calls(*builds) / n, "count"),
        "matrices.build.busy_ms": (busy_ms(*builds) / n, "ms"),
        "matrices.exact_rank.calls": (rank_calls / n, "count"),
        "matrices.exact_rank.busy_ms": (rank_ms / n, "ms"),
        "matrices.exact_rank.us_per_call": (ratio(rank_ms * 1e3, rank_calls), "us"),
        "matrices.verify_spectrum.busy_ms": (busy_ms("matrices.verify_fay_spectrum") / n, "ms"),
        "matrices.exact_det.calls": (calls("matrices.exact_det") / n, "count"),
        "matrices.exact_det.busy_ms": (busy_ms("matrices.exact_det") / n, "ms"),
        "search.masks": (masks / n, "count"),
        "search.masks_per_s": (ratio(masks, probe_s), "1/s"),
        "search.modp.busy_ms": (modp_ms / n, "ms"),
        "search.modp.us_per_mask": (ratio(modp_ms * 1e3, screened), "us"),
        "search.self_ms": (self_ms("search.h0_probe") / n, "ms"),
        "search.canon.busy_ms": (busy_ms("search.canonicalize_mask") / n, "ms"),
        "search.confirm.calls": (confirms / n, "count"),
        "search.screen_pass_frac": (ratio(confirms, masks), "ratio"),
        "search.exhaustive.self_ms": (self_ms("search.h0_exhaustive") / n, "ms"),
    }
