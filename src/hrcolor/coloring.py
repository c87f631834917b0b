"""Vertex multicolorings over a palette {1..k}.

Colors are 1-based in every public interface and stored 0-based in bit
masks internally. Empty color sets are legal vertex values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import VertexSet


@dataclass(frozen=True, slots=True, repr=False)
class ColorSet:
    """Immutable subset of the palette {1..palette_size}, backed by a bit mask."""

    mask: int
    palette_size: int

    def __post_init__(self) -> None:
        if self.palette_size < 0:
            raise ValueError("palette size must be non-negative")
        if self.mask < 0 or self.mask >> self.palette_size:
            raise ValueError(
                f"color mask {self.mask:#x} has colors outside 1..{self.palette_size}"
            )

    @classmethod
    def from_colors(cls, colors: Iterable[int], palette_size: int) -> "ColorSet":
        mask = 0
        for c in colors:
            if not 1 <= c <= palette_size:
                raise ValueError(f"color {c} out of range 1..{palette_size}")
            mask |= 1 << (c - 1)
        return cls(mask, palette_size)

    def colors(self) -> tuple[int, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            b = m & -m
            yield b.bit_length()
            m ^= b

    def __contains__(self, c: int) -> bool:
        return 1 <= c <= self.palette_size and bool(self.mask >> (c - 1) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def is_full(self) -> bool:
        """True when every palette color is present."""
        return self.mask == (1 << self.palette_size) - 1

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self)
        return f"ColorSet({{{inner}}}, palette_size={self.palette_size})"


class Multicoloring:
    """Per-vertex color subsets; entry v is the color set of vertex v."""

    __slots__ = ("palette_size", "masks")

    def __init__(self, palette_size: int, masks: Iterable[int]) -> None:
        if palette_size < 0:
            raise ValueError("palette size must be non-negative")
        ms = tuple(masks)
        top = 1 << palette_size
        for v, m in enumerate(ms):
            if m < 0 or m >= top:
                raise ValueError(
                    f"vertex {v} uses colors outside the palette 1..{palette_size}"
                )
        self.palette_size = palette_size
        self.masks = ms

    @classmethod
    def from_sets(
        cls, palette_size: int, sets: Iterable[Iterable[int]]
    ) -> "Multicoloring":
        """Build from 1-based color iterables, one per vertex."""
        masks = []
        for colors in sets:
            m = 0
            for c in colors:
                if not 1 <= c <= palette_size:
                    raise ValueError(f"color {c} out of range 1..{palette_size}")
                m |= 1 << (c - 1)
            masks.append(m)
        return cls(palette_size, masks)

    def __len__(self) -> int:
        return len(self.masks)

    def color_set(self, v: int) -> ColorSet:
        return ColorSet(self.masks[v], self.palette_size)

    def colors_of(self, v: int) -> tuple[int, ...]:
        return self.color_set(v).colors()

    def sets(self) -> tuple[tuple[int, ...], ...]:
        """All vertex color sets as sorted 1-based tuples."""
        return tuple(self.colors_of(v) for v in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multicoloring):
            return NotImplemented
        return self.palette_size == other.palette_size and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.palette_size, self.masks))

    def __repr__(self) -> str:
        return f"Multicoloring(k={self.palette_size}, sets={list(self.sets())})"


class ColorClasses:
    """Dual view of a multicoloring: for each color, the set of vertices holding it."""

    __slots__ = ("num_vertices", "palette_size", "class_masks")

    def __init__(
        self, num_vertices: int, palette_size: int, class_masks: Iterable[int]
    ) -> None:
        ms = tuple(class_masks)
        if len(ms) != palette_size:
            raise ValueError("one class per palette color required")
        top = 1 << num_vertices
        for c, m in enumerate(ms, start=1):
            if m < 0 or m >= top:
                raise ValueError(f"class of color {c} contains out-of-range vertices")
        self.num_vertices = num_vertices
        self.palette_size = palette_size
        self.class_masks = ms

    def vertex_class(self, color: int) -> VertexSet:
        if not 1 <= color <= self.palette_size:
            raise ValueError(f"color {color} out of range 1..{self.palette_size}")
        return VertexSet(self.class_masks[color - 1], self.num_vertices)

    def __iter__(self) -> Iterator[VertexSet]:
        for m in self.class_masks:
            yield VertexSet(m, self.num_vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColorClasses):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.palette_size == other.palette_size
            and self.class_masks == other.class_masks
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.palette_size, self.class_masks))

    def __repr__(self) -> str:
        return (
            f"ColorClasses(n={self.num_vertices}, k={self.palette_size}, "
            f"classes={[list(vs) for vs in self]})"
        )


def union_over(kappa: Multicoloring, vertices: VertexSet) -> ColorSet:
    """Union of the color sets over the given vertices; empty for the empty set."""
    if vertices.capacity > len(kappa):
        raise ValueError("vertex set exceeds the coloring length")
    m = 0
    masks = kappa.masks
    for v in vertices:
        m |= masks[v]
    return ColorSet(m, kappa.palette_size)


def has_all_colors(kappa: Multicoloring, vertices: VertexSet) -> bool:
    """True when the vertices jointly hold every palette color."""
    return union_over(kappa, vertices).is_full()


def extend_palette(kappa: Multicoloring) -> Multicoloring:
    """Grow the palette by one color and put the new color on every vertex."""
    k = kappa.palette_size
    new_bit = 1 << k
    return Multicoloring(k + 1, tuple(m | new_bit for m in kappa.masks))


def extend_vertex(kappa: Multicoloring) -> Multicoloring:
    """Append one vertex with the empty color set."""
    return Multicoloring(kappa.palette_size, kappa.masks + (0,))


def classes(kappa: Multicoloring) -> ColorClasses:
    """Per-color vertex classes of the coloring."""
    n = len(kappa)
    k = kappa.palette_size
    class_masks = [0] * k
    for v, m in enumerate(kappa.masks):
        bit = 1 << v
        mm = m
        while mm:
            b = mm & -mm
            class_masks[b.bit_length() - 1] |= bit
            mm ^= b
    return ColorClasses(n, k, class_masks)


def from_classes(cc: ColorClasses) -> Multicoloring:
    """Rebuild the per-vertex view from color classes."""
    return from_class_masks(cc.num_vertices, cc.palette_size, cc.class_masks)


def from_class_masks(
    num_vertices: int, palette_size: int, class_masks: Iterable[int]
) -> Multicoloring:
    """The coloring that puts color i+1 on the vertices of class_masks[i];
    the search builds its leaf colorings here without a `ColorClasses`."""
    masks = [0] * num_vertices
    for i, class_mask in enumerate(class_masks):
        bit = 1 << i
        m = class_mask
        while m:
            b = m & -m
            masks[b.bit_length() - 1] |= bit
            m ^= b
    return Multicoloring(palette_size, masks)


def canonical_form(kappa: Multicoloring) -> tuple[VertexSet, ...]:
    """Color classes sorted by mask value.

    Colorings that differ only by a permutation of color names share one
    canonical form, so two colorings are equal up to color renaming exactly
    when their canonical forms are equal.
    """
    cc = classes(kappa)
    n = cc.num_vertices
    return tuple(VertexSet(m, n) for m in sorted(cc.class_masks))
