#!/usr/bin/env python3
"""The boundary-bump ratio sweep on the disc.

Shrinking bumps are planted just inside packed boundary points; the ratio
   sum ||phihat_i||_2^2 / ( ||psi_N||_1 * (sum ||phihat_i w^{1/p}||_{p'}^p)^{1/p} )
grows with N once p crosses 4 and decays below, which is the finite-size
signature of the bounded-symbol extension failing in that range.
"""

from pwlab.nehari import NehariConfig, sweep_and_fit

for p in (6.0, 3.0, 2.0):
    cfg = NehariConfig(p=p)
    rep = sweep_and_fit(cfg)
    print(f"=== p = {p} ===")
    print(f"  {'eps':>6} {'N':>4} {'ratio':>10} {'|psi|_1':>10} {'a_max/eps^3':>12}")
    for row in rep.rows:
        print(f"  {row.eps:>6} {row.N:>4} {row.ratio:>10.5f} {row.psi_l1:>10.4f}"
              f" {row.a_max / row.eps ** 3:>12.4f}")
    trend = "grows" if rep.slope > 0 else "decays"
    print(f"  slope of log ratio vs log N: {rep.slope:+.4f}  ({trend})")
    print()

print("The p = 2 row is an observation only: at the Hilbert-Schmidt exponent the")
print("ratio is controlled by the w-weighted L2 identity and stays bounded.")
