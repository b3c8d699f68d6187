#!/usr/bin/env python3
"""Reproduce the determinism limit 2/3 of the nested-interval construction.

Enumerates the word-pair counts N_1° and N_m° at thresholds eps_k = r^-k,
checks every enumerated pair against the depth scaling law (a factor 4 per
depth, ``delahaye_counts_formula``) and exits non-zero on a mismatch, and
prints the exact determinism and RQA-determinism limits (2/3 for every
window length m >= 2).
"""
import argparse
import sys
from pathlib import Path

from rqamaps.constructions import (build_delahaye, delahaye_counts_formula,
                                   delahaye_det, delahaye_rdet)
from rqamaps.solenoidal import counts_by_window, write_counts_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r", type=int, default=5)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--kmax", type=int, default=6)
    ap.add_argument("--tmax", type=int, default=8)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()
    if args.m < 2:
        ap.error("the scaling law is stated for --m >= 2")

    args.outdir.mkdir(parents=True, exist_ok=True)
    inst = build_delahaye(args.r, depth_cap=args.tmax)
    rows, mismatches = [], []
    for k in range(1, args.kmax + 1):
        eps = inst.epsilon_k(k)
        for t in range(k + 1, args.tmax + 1):
            counts = counts_by_window(inst.system, t, eps, args.m)
            got = (counts[0].n_closed, counts[-1].n_closed)
            law = delahaye_counts_formula(k, args.m, t)
            if got != law:
                mismatches.append(f"k={k} t={t}: (N_1°, N_m°) = {got}, scaling law {law}")
            rows.append(counts[-1])
        print(f"k={k} eps={eps}: N_m°/p_t^2 = {rows[-1].lower} at every depth, "
              f"rdet limit = {delahaye_rdet(k, args.m)}, "
              f"DET limit = {delahaye_det(k, args.m)}")
    out = args.outdir / "prop52_counts.csv"
    write_counts_csv(rows, out)
    print(f"wrote {out}")
    if mismatches:
        print("counts off the scaling law:", *mismatches, sep="\n  ", file=sys.stderr)
        return 1
    print(f"all {len(rows)} enumerated count pairs match the scaling law")
    return 0


if __name__ == "__main__":
    sys.exit(main())
