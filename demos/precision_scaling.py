"""Precision scaling of the sequential readout: shot noise vs Heisenberg.

For each even N the closed-form dB_z is minimized over the open field box
(0, pi/T)^3.  A log-log fit of the minima against N should give slope -1/2
for the product probe and -1 for the cat probe, matching the parallel-scheme
constants 1/(sqrt(N) T) and 1/(N T).

Run: python3 demos/precision_scaling.py
"""

from vecmag.estimation import minimized_delta_b, scaling_fit

SIZES = (4, 6, 8, 10, 12, 16, 20, 24)


def main():
    table = {}
    print(f"{'N':>4}  {'scs dBz * sqrt(N)':>18}  {'ghz dBz * N':>12}")
    for n in SIZES:
        row = {p: minimized_delta_b("sequential", p, n)[2] for p in ("scs", "ghz")}
        table[n] = row
        # normalized columns should sit near 1 if the scaling laws hold
        print(f"{n:>4}  {row['scs'] * n**0.5:>18.6f}  {row['ghz'] * n:>12.6f}")
    print()
    for probe, target in (("scs", -0.5), ("ghz", -1.0)):
        fit = scaling_fit((n, table[n][probe]) for n in SIZES)
        print(f"{probe}: slope {fit.slope:+.4f} (target {target:+.1f}),"
              f" r^2 {fit.r_squared:.6f}")


if __name__ == "__main__":
    main()
