"""Phase-scaling collapse of Heisenberg band entries.

Each band entry of an evolved operator (a†)^n (a†a)^m rotates at the rate
[n]_q q^j in scaled time.  Dividing the unwrapped phase by [n]_q therefore
collapses every (n, m) curve onto the single master curve tau * q^j.  This
script builds nine curves, applies the normalization, and prints the worst
pairwise deviation.
"""

import numpy as np

from qdosc import LambdaIndex, QOsc, band_phase_trace, collapse_transform, q_number

params = QOsc(q=1.5)
j_col = 1
taus = np.linspace(0.0, 10.0, 2001)

indices = [(n, m) for n in (1, 2, 3) for m in (0, 1, 2)]
curves = [band_phase_trace(params, LambdaIndex(n, m), j_col, taus) for n, m in indices]
normalized = collapse_transform(curves)

master = taus * params.q**j_col
print(f"q = {params.q}, column index j = {j_col}")
print(f"{'(n,m)':>8} {'[n]_q':>8} {'max |curve - master|':>22}")
for (n, m), curve in zip(indices, normalized):
    dev = np.max(np.abs(curve - master))
    print(f"{f'({n},{m})':>8} {q_number(n, params.q):8.4f} {dev:22.3e}")

stacked = np.vstack(normalized)
print(f"worst pairwise deviation across all curves: "
      f"{np.max(np.abs(stacked[:, None, :] - stacked[None, :, :])):.3e}")
