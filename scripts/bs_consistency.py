#!/usr/bin/env python3
"""Degenerate-model consistency table: Malliavin vs closed form.

Runs every Greek on the constant-vol degeneration (AlphaRFSV with
xi = 0) and prints the estimate, the Black-Scholes value and the
z-score, for the plain and the digital call.  Everything should sit
within a few standard errors; this is the quickest end-to-end sanity
check of the weight machinery.
"""

import argparse
import math

from volterra_greeks import (
    AlphaRFSV,
    KernelSpec,
    MarketSpec,
    OptionSpec,
    TimeGrid,
    bs_price_greeks,
    estimate_many,
    fd_greek,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-paths", type=int, default=100_000)
    ap.add_argument("--n-steps", type=int, default=64)
    ap.add_argument("--sigma", type=float, default=0.2)
    ap.add_argument("--rate", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    model = AlphaRFSV(v0=args.sigma, xi=0.0, alpha=1.0, rho=0.0,
                      kernel=KernelSpec(H=0.14, eps=1e-6))
    market = MarketSpec(s0=100.0, r=args.rate)
    grid = TimeGrid(T=1.0, n=args.n_steps)
    kinds = ["price", "delta", "gamma", "rho", "vega"]

    for payoff in ("call", "digital_call"):
        opt = OptionSpec(strike=100.0, maturity=1.0, payoff=payoff)
        ref = bs_price_greeks(100.0, 100.0, 1.0, args.rate, args.sigma, payoff)
        ests = estimate_many(kinds, model, market, opt, grid, args.n_paths, args.seed)
        sens = [e.kind for e in ests if e.kind != "price"]
        fds = dict(zip(sens, fd_greek(sens, model, market, opt, grid, args.n_paths, args.seed)))
        print(f"\n{payoff}  ({args.n_paths} paths, {args.n_steps} steps, seed {args.seed})")
        print(f"{'kind':8} {'malliavin':>12} {'stderr':>10} {'closed':>12} {'z':>6}   {'fd':>12} {'z_fd':>6}")
        for est in ests:
            target = getattr(ref, est.kind)
            z = abs(est.value - target) / est.stderr
            if est.kind == "price":
                fd_s = f"{'-':>12} {'-':>6}"
            else:
                fd = fds[est.kind]
                zf = abs(est.value - fd.value) / math.hypot(est.stderr, fd.stderr)
                fd_s = f"{fd.value:12.5f} {zf:6.2f}"
            print(f"{est.kind:8} {est.value:12.5f} {est.stderr:10.5f} {target:12.5f} {z:6.2f}   {fd_s}")


if __name__ == "__main__":
    main()
