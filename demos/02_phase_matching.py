"""Temperature-tuned conversion: calibration, extrema, the exact curve.

The model is calibrated from just two measured temperatures (the global
conversion maximum and the first zero) and then predicts the rest of the
low-drive sinc^2 curve, including the second zero and the side-lobe maxima.
The conversion curve itself is the exact single pass of the cascade, whose
minima sit slightly below the sinc^2 zeros at a finite drive.
"""

import numpy as np

from kerrsqueezer import (
    calibrate_from_extrema,
    delta_k,
    find_conversion_extrema,
    single_pass_conversion,
)

model = calibrate_from_extrema(t_max=40.5, t_min1=61.2, length=0.0093)
print(f"calibrated: t_pm = {model.t_pm} C, dk/dT = {model.dk_dt:.2f} rad/(m K)")

print("\npredicted sinc^2 extrema between 20 C and 88 C:")
for temperature, kind in find_conversion_extrema(model, (20.0, 88.0)):
    print(f"  {temperature:7.2f} C  {kind}")
print("(the second zero lands at 81.9 C, 0.1 K from the measured 81.8 C)")


def conversion(temps):
    """Exact single-pass conversion at 2.48 W circulating, fig3's drive."""
    return single_pass_conversion(2.48, delta_k(model, temps), 14.0, model.length)


temps = np.linspace(20.0, 88.0, 137)
eff = conversion(temps)
peak = eff.max()
print(f"\nexact conversion curve at 2.48 W circulating (kappa = 14 /sqrt(W)/m):")
print(f"  peak single-pass conversion: {peak*100:.2f}% at {temps[np.argmax(eff)]:.1f} C")
fine = np.linspace(60.7, 61.7, 10001)
print(f"  first minimum above the peak: {fine[np.argmin(conversion(fine))]:.2f} C "
      "(the calibrated sinc^2 zero: 61.20 C)")

# Poor man's plot: one row per few kelvin.
print("\n  T (C)   conversion")
for t, e in zip(temps[::8], eff[::8]):
    bar = "#" * int(60 * e / peak)
    print(f"  {t:5.1f}  {bar}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(temps, 100 * eff)
    ax.set_xlabel("crystal temperature (C)")
    ax.set_ylabel("single-pass conversion (%)")
    ax.set_title("exact single-pass conversion vs temperature")
    fig.tight_layout()
    fig.savefig("demo02_conversion.png", dpi=120)
    print("\nwrote demo02_conversion.png")
except ImportError:
    pass
