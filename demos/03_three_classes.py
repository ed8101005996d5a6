"""Partition the walks of P_7 by how often they touch the midpoint.

Every walk either avoids vertex 4 entirely (class 1), lands on it exactly
once (class 2), or returns to it (class 3). Class-1 walks are trapped in
one 3-vertex half. Class-2 walks factor into a prefix and a suffix around
the single visit. Class-3 walks pair up under reflection. Each class has
even size, so the total is even.
"""

from nilpath import class2_decompose, class_census, classify, enumerate_walks


def main():
    n, pivot, x, y, k = 7, 4, 3, 2, 7
    walks = enumerate_walks(n, x, y, k)
    print(f"The {len(walks)} walks of length {k} from {x} to {y} in P_{n}, classified:")
    for w in walks:
        print(f"   {str(w):17s} class {classify(n, w, pivot)}")
    print()

    census = class_census(n, pivot, x, y, k)
    print(f"Census around pivot {pivot}:")
    print(f"  class 1 (never visits {pivot}):   {census.c1}")
    print(f"  class 2 (visits {pivot} once):    {census.c2}")
    print(f"  class 3 (visits {pivot} twice+):  {census.c3}")
    print(f"  total:                    {census.total}")
    print()

    print("Class 2, split by when the single visit happens:")
    for i, c in enumerate(census.per_step_c2):
        if c:
            print(f"  visit after {i} steps: {c} walks")
    print("Each of those counts is even, and here is one split in full:")
    w = next(w for w in walks if classify(n, w, pivot) == 2)
    prefix, suffix = class2_decompose(n, w, pivot)
    print(f"   walk  {w}")
    print(f"   visit at step {len(prefix)}")
    print(f"   prefix {prefix}   suffix {suffix}")
    print("The prefix lives left of the pivot, the suffix lives left too;")
    print("each half of P_7 is a copy of P_3, and the argument recurses.")


if __name__ == "__main__":
    main()
