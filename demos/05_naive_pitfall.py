"""Why the pairing must reflect through the midpoint and nothing else.

A tempting shortcut: in any walk of length >= n some vertex repeats, so
pick the repeated vertex with the most factors of 2 and reflect between
its first two visits. The pivot then survives the reflection and the map
is again self-inverse. The catch: that pivot need not sit at the center,
and the mirrored segment can step outside the path. This script hunts
down the smallest walk in P_7 where that happens.
"""

from nilpath import ReflectionOutOfBounds, find_naive_failure, naive_pivot, naive_reflect


def dashed(walk):
    return "-".join(map(str, walk))


def main():
    print("The naive rule working as intended:")
    for w in ((4, 5, 4), (2, 3, 2), (3, 4, 5, 4, 3, 2, 1)):
        pivot = naive_pivot(w)
        image = naive_reflect(7, w)
        print(f"   {dashed(w):16s} pivot {pivot}  ->  {dashed(image)}")
    print()

    witness = find_naive_failure(7, 7)
    print(f"First length-7 walk of P_7 where the rule breaks: {dashed(witness)}")
    pivot = naive_pivot(witness)
    print(f"  repeated vertices with their 2-exponents:")
    seen = sorted(set(v for v in witness if witness.count(v) > 1))
    for v in seen:
        exp = (v & -v).bit_length() - 1
        print(f"    vertex {v}: 2-exponent {exp}")
    print(f"  chosen pivot: {pivot}")
    try:
        naive_reflect(7, witness)
    except ReflectionOutOfBounds as exc:
        print(f"  reflection result: {exc}")
    print()
    print("Pivot 2 sits one step from the wall, so the mirror image of the")
    print("segment between its visits needs room the path does not have.")
    print("The proof dodges this by never reflecting class-2 walks at all")
    print("and reflecting class-3 walks only through the exact midpoint,")
    print("which has a full half-path on each side.")


if __name__ == "__main__":
    main()
