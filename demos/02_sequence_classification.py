"""Width-sequence models: lacunarity, majorization, shifts, the grammar.

A nonincreasing positive sequence is lacunary when consecutive ratios dip
toward zero along a subsequence.  That single property decides whether the
covering semigroup of an ellipsoid closes up to everything or stays inside
an invariant-subspace algebra, so the classifiers here are the package's
switchboard.
"""

from widthlab import (
    Geometric,
    Power,
    Samples,
    Shifted,
    SuperGeometric,
    classify_WG,
    equivalent,
    is_lacunary,
    majorizes,
    parse_model,
    sample,
    strictly_majorizes,
)
from widthlab.seqlab import shift_search

geom = Geometric(0.5)          # a_n = 2^-n
power = Power(2.0)             # a_n = (n+1)^-2
steep = SuperGeometric(2.0)    # a_n = 2^-(n^2)

print("first terms:")
for model in (geom, power, steep):
    print(f"  {model}: {sample(model, 5)}")

# Lacunarity is decided exactly for the parametric families.
print("\nlacunarity:")
for model in (geom, power, steep):
    v = is_lacunary(model)
    print(f"  {model}: lacunary={v.lacunary}, smallest ratio={v.witness_ratio}, exact={v.exact}")

# For sampled data only a windowed surrogate is possible; the verdict says so.
data = Samples((1.0, 0.5, 1e-5, 5e-6))
v = is_lacunary(data)
print(f"  {data}: lacunary={v.lacunary}, witness={v.witness_ratio}, exact={v.exact}")

# Majorization b_n <= C a_n with the minimal C from closed forms.
print("\nmajorization:")
print("  geom(1/2) over geom(1/4):", majorizes(geom, Geometric(0.25)))
print("  geom(1/4) over geom(1/2):", majorizes(Geometric(0.25), geom))
print("  steep over its shift:    ", majorizes(steep, Shifted(1, steep)))

# Strict majorization (ratio -> 0) is what compact covers need.
print("\nstrict majorization:")
print("  pow(1) over pow(2):", strictly_majorizes(Power(1.0), Power(2.0)).holds)
print("  geom over itself:  ", strictly_majorizes(geom, geom).holds)

# Left shifts: a geometric sequence majorizes all of its shifts (ratio q^-k
# stays bounded, k=None); a super-geometric one loses majorization at the
# exact gap.  The largest majorizing shift is what classify_WG reads.
print("\nlargest majorizing shift, and the WG closure it gives (budget 8):")
for name, a, b in (("geom vs itself", geom, geom),
                   ("steep vs shift(1,steep)", steep, Shifted(1, steep)),
                   ("steep vs itself", steep, steep)):
    found = shift_search(a, b, 8)
    wg = classify_WG(a, b, k_max=8)
    print(f"  {name + ':':25} k={found.k}, exact={found.base.exact} -> {wg.tag}"
          + (f"({wg.k})" if wg.k is not None else ""))

# Equivalence = majorization both ways; scaling never matters.
print("\nequivalence:")
print("  geom ~ 3*geom:", equivalent(geom, parse_model("scale(3, geom(0.5))")))
print("  geom ~ geom(1/4):", equivalent(geom, Geometric(0.25)))

# The same grammar drives the command line.
expr = "shift(1, scale(2, supergeom(2)))"
print(f"\nparsed {expr!r} ->", parse_model(expr))
