"""Correctness checks on every estimate a repetition produces.

A check is (name, ok, detail).  Each failed check counts in fail_frac;
none of them stops the run.  Rows are dicts with the keys of the CLI's
CSV output: greek rows carry kind, method, value and stderr, converge
rows ns, value, ci_low and ci_high.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from workloads import Z_LIMIT, Workload


def _finite(*xs) -> bool:
    return all(isinstance(x, float) and math.isfinite(x) for x in xs)


def _z_check(name, value, se, ref, ref_se):
    if not _finite(value, se, ref, ref_se):
        return (name, False, "non-finite input")
    comb = math.hypot(se, ref_se)
    z = abs(value - ref) / comb if comb > 0.0 else math.inf
    return (name, z < Z_LIMIT, f"z={z:.3f} (limit {Z_LIMIT})")


def z_quantile(confidence: float) -> float:
    return NormalDist().inv_cdf(0.5 * (1.0 + confidence))


def check_rep(wl: Workload, cfg, status: int, rows: list) -> list:
    out = [("exit status is 0", status == 0, f"status {status}")]
    if wl.runner == "converge":
        return out + _converge_checks(wl, cfg, rows)
    return out + _greek_checks(wl, rows)


def _converge_checks(wl, cfg, rows):
    zq = z_quantile(cfg.confidence)
    by_ns = {r["ns"]: r for r in rows}
    out = []
    for n in cfg.ns_schedule:
        r = by_ns.get(n)
        ok = r is not None and _finite(r["value"], r["ci_low"], r["ci_high"])
        out.append((f"ns={n}: finite estimate", ok, repr(r)))
    final = by_ns.get(cfg.ns_schedule[-1])
    if final is None:
        return out + [(f"ns={cfg.ns_schedule[-1]}: present", False, "missing")]
    hw = 0.5 * (final["ci_high"] - final["ci_low"])
    kind = wl.headline
    if "ref" in wl.oracles.get(kind, ()):
        out.append(_z_check(f"{kind}: z against the pinned reference", final["value"], hw / zq, *wl.refs[kind]))
    if wl.max_final_hw is not None:
        out.append(("final half-width below the limit", hw < wl.max_final_hw, f"{hw:.5f} < {wl.max_final_hw}"))
    if wl.hw_ratio is not None:
        out.append(_ratio_check(wl.hw_ratio, cfg.ns_schedule, by_ns))
    return out


def _ratio_check(bounds, schedule, by_ns):
    """Mean half-width ratio per 4x step over the chain of (N, 4N) entries.

    A single pair at N = 1000 falls outside [1.6, 2.4] for about one seed
    in seven from sampling noise alone, so the check averages the steps
    (geometric mean) and reports every pair.
    """
    hw = {n: 0.5 * (r["ci_high"] - r["ci_low"]) for n, r in by_ns.items()}
    pairs = [(n, 4 * n) for n in schedule if 4 * n in hw and n in hw]
    if not pairs:
        return ("half-width ratio per 4x paths", False, "no (N, 4N) pair in the schedule")
    ratios = [hw[a] / hw[b] for a, b in pairs]
    mean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    lo, hi = bounds
    detail = f"mean {mean:.3f} in [{lo}, {hi}]; " + ", ".join(f"{a}->{b}: {r:.3f}" for (a, b), r in zip(pairs, ratios))
    return ("half-width ratio per 4x paths", lo <= mean <= hi, detail)


def _greek_checks(wl, rows):
    rows_by = {(r["kind"], r["method"]): r for r in rows}
    out = []
    for kind, oracles in wl.oracles.items():
        m = rows_by.get((kind, "malliavin"))
        if m is None or not _finite(m["value"], m["stderr"]):
            out.append((f"{kind}: finite Malliavin estimate", False, repr(m)))
            continue
        out.append((f"{kind}: finite Malliavin estimate", True, f"{m['value']:.6g} +- {m['stderr']:.3g}"))
        for oracle in oracles:
            if oracle == "ref":
                out.append(_z_check(f"{kind}: z against the pinned reference", m["value"], m["stderr"],
                                    *wl.refs[kind]))
                continue
            name = f"{kind}: z against the {oracle} oracle"
            o = rows_by.get((kind, oracle))
            if o is None:
                out.append((name, False, "oracle row missing"))
            else:
                out.append(_z_check(name, m["value"], m["stderr"], o["value"], o["stderr"]))
    return out
