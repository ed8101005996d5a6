"""Pair up the walks that revisit the midpoint, by mirroring a segment.

Take any walk that visits vertex 4 of P_7 at least twice. Between its
first two visits, swap every step toward 7 with a step toward 1: the
segment reflects through the pivot as v -> 8 - v. Doing it twice undoes
it, and no walk maps to itself, so class 3 splits into disjoint pairs.
That is a bijective proof that the class has even size, and this script
checks it by brute force.
"""

from nilpath import classify, iter_walks_from, reflect_class3


def dashed(walk):
    return "-".join(map(str, walk))


def class3_walks(n, pivot, k):
    for start in range(1, n + 1):
        for walk in iter_walks_from(n, start, k):
            if classify(n, walk, pivot) == 3:
                yield walk


def main():
    n, pivot = 7, 4
    print("A few mirror pairs (segment between the first two visits of 4):")
    shown = 0
    for walk in class3_walks(n, pivot, 7):
        image = reflect_class3(n, walk, pivot)
        if walk < image and shown < 6:
            print(f"   {dashed(walk):17s} <-> {dashed(image)}")
            shown += 1
    print()

    print("Pairing the whole class, length by length:")
    for k in range(2, 10):
        walks = list(class3_walks(n, pivot, k))
        paired = set()
        for w in walks:
            image = reflect_class3(n, w, pivot)
            assert image != w
            assert reflect_class3(n, image, pivot) == w
            paired.add(frozenset([w, image]))
        print(
            f"  length {k}: {len(walks):5d} class-3 walks "
            f"= {len(paired):5d} disjoint pairs"
        )
    print()
    print("Every count is twice the number of pairs, hence even. The same")
    print("reflection through any off-center vertex could leave the path;")
    print("demo 05 shows how that goes wrong.")


if __name__ == "__main__":
    main()
