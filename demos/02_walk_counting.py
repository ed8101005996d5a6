"""Three ways to count walks in a path graph, and why they must agree.

Entry (x, y) of the k-th power of an adjacency matrix counts the walks of
length k from x to y. The library computes that count three ways: the
method of images (a walk on the path is a walk on the integers that
never touches 0 or n + 1, so the count is a signed sum of binomial
coefficients),
explicit enumeration of every walk, and the integer matrix power itself.
Over GF(2) a fourth route keeps only the parity. They all tell the same
story.
"""

from nilpath import (
    count_walks_exact,
    count_walks_parity,
    enumerate_walks,
    integer_adjacency_power,
)


def main():
    n, x, y, k = 7, 3, 2, 7
    print(f"Walks of length {k} from {x} to {y} in P_{n}:")
    walks = enumerate_walks(n, x, y, k)
    for w in walks:
        print(f"   {w}")
    print(f"  enumerated:        {len(walks)}")
    print(f"  counted by images: {count_walks_exact(n, x, y, k)}")
    power = integer_adjacency_power(n, k)
    print(f"  matrix power entry: {power[x - 1][y - 1]}")
    print(f"  parity:            {count_walks_parity(n, x, y, k)}")
    print()

    print(f"All length-{k} counts in P_{n} at once (rows = x, columns = y):")
    for row in integer_adjacency_power(n, k):
        print("   " + " ".join(f"{c:4d}" for c in row))
    print("Every entry is even: that is exactly why the GF(2) matrix A^7 is zero.")
    print()

    k = 6
    print(f"At length {k} = n - 1 there is a single odd entry per corner:")
    for row in integer_adjacency_power(n, k):
        print("   " + " ".join(f"{c:4d}" for c in row))
    print("The walk 1-2-3-4-5-6-7 is alone in its matrix cell, so the bound")
    print("on the exponent cannot be lowered.")
    print()

    print("Counts explode with k; the image sum has about 2k/(n + 1) terms:")
    for k in (10, 50, 200):
        c = count_walks_exact(9, 5, 5, k)
        print(f"  length {k:3d}, P_9, 5 -> 5: {c}")


if __name__ == "__main__":
    main()
