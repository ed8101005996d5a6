"""The characteristic polynomial knows which paths are nilpotent.

Over a field, a matrix is nilpotent exactly when its characteristic
polynomial is a bare power of x. The path is a tree, so its polynomial is
its matching polynomial, and mod 2 Kummer's theorem makes each coefficient
one bit test, so the whole family can be scanned fast. The monomials land
precisely on n = 2^m - 1.
"""

from nilpath import charpoly_is_monomial, charpoly_path, nilpotency_index, path_adjacency


def main():
    print("Characteristic polynomial of P_n over GF(2):")
    for n in range(1, 17):
        marker = "  <- monomial" if charpoly_is_monomial(n) else ""
        print(f"  n = {n:2d}:  {charpoly_path(n)}{marker}")
    print()

    print("Monomial sizes up to 600:")
    monomials = [n for n in range(1, 601) if charpoly_is_monomial(n)]
    print(f"  {monomials}")
    print(f"  and 2^m - 1 for m = 1..9 is {[2**m - 1 for m in range(1, 10)]}")
    print()

    print("Cross-check against the matrix itself (n up to 64):")
    disagreements = 0
    for n in range(1, 65):
        nilpotent = nilpotency_index(path_adjacency(n)) is not None
        if nilpotent != charpoly_is_monomial(n):
            disagreements += 1
            print(f"  DISAGREEMENT at n = {n}")
    print(f"  {disagreements} disagreements across 64 sizes")


if __name__ == "__main__":
    main()
