"""Deficit at ruin: how bad is ruin when it happens, and how far apart can
two models push that tail.
"""

import numpy as np

from ruinbounds import (Erlang, Exponential, RiskModel, deficit_tail_family,
                        dk2, ruin_probability, sup_distance)

# same mean, same loading, different shapes
theta = 1.0
m_erl = RiskModel(1.0, 1.0 + theta, Erlang(3, 3.0))
m_exp = RiskModel(1.0, 1.0 + theta, Exponential(1.0))

ys = (0.25, 0.5, 1.0)
g_erl = deficit_tail_family(m_erl, ys, u_max=8.0)
g_exp = deficit_tail_family(m_exp, ys, u_max=8.0)

print("P(ruin with deficit > y) at u = 1:")
for y in ys:
    print(f"  y = {y:4.2f}:  Erlang {g_erl[y](1.0):.4f}   "
          f"Exp {g_exp[y](1.0):.4f}   gap {abs(g_erl[y](1.0) - g_exp[y](1.0)):.4f}")

# The continuity bound caps the uniform gap using only the truncated
# Kantorovich distance between claim laws; it holds uniformly in u, so some
# slack against the pointwise gap is expected.
print("\nuniform gap vs its continuity bound:")
for y in ys:
    gap = sup_distance(g_erl[y], g_exp[y])
    rep = dk2(m_erl, m_exp, y)
    print(f"  y = {y:4.2f}:  sup gap {gap:.4f}  <=  bound {rep.value:.4f}")

# sanity: at y = 0 the deficit tail is the ruin probability itself
psi = ruin_probability(m_erl, u_max=8.0)
g0 = deficit_tail_family(m_erl, (0.0,), u_max=8.0)[0.0]
print(f"\ny = 0 recovers psi: sup diff = "
      f"{np.max(np.abs(psi.values - g0.values)):.2e}")
