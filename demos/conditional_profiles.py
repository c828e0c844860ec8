"""Origin-conditional cross sections vs their Gaussian stand-ins.

Writes the far-field conditional density at P = 2 together with the two
Gaussian models alpha = 0.45 and 0.72 on 41 points of [-2.5, 2.5] to
conditional_profiles.csv, and prints a crude ASCII rendering of it.  The
same curves at full resolution (201 points over +-5 slice standard
deviations) come from `spdc-ng figure 1c`.
"""

import numpy as np

from spdc_ng import Params, conditional_of, make_density

params = Params(p=2.0)
spdc = conditional_of(make_density("far_field", "spdc", params), 0.0)
models = {a: conditional_of(
    make_density("far_field", "gaussian", params, alpha=a), 0.0)
    for a in (0.45, 0.72)}

xs = np.linspace(-2.5, 2.5, 41)
rows = [(x, spdc(x), models[0.45](x), models[0.72](x)) for x in xs]

with open("conditional_profiles.csv", "w", newline="") as fh:
    fh.write("coord,spdc,gauss_a0.45,gauss_a0.72\n")
    for row in rows:
        fh.write(",".join(repr(float(v)) for v in row) + "\n")

peak = max(r[1] for r in rows)
for x, v, *_ in rows:
    bar = "#" * int(60 * v / peak)
    print(f"{x:6.2f} {v:8.4f} {bar}")
print("\nwrote conditional_profiles.csv")
