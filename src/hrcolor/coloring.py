"""Vertex multicolorings over a palette {1..k}.

Colors are 1-based in every public interface and stored 0-based in bit
masks internally. Empty color sets are legal vertex values.
"""

from __future__ import annotations

from typing import Iterable


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

    def colors_of(self, v: int) -> tuple[int, ...]:
        """The 1-based colors of vertex v, ascending."""
        m = self.masks[v]
        return tuple(c + 1 for c in range(m.bit_length()) if m >> c & 1)

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


def from_class_masks(
    num_vertices: int, palette_size: int, class_masks: Iterable[int]
) -> Multicoloring:
    """The coloring that puts color i+1 on the vertices of class_masks[i];
    the search builds its leaf colorings here."""
    masks = [0] * num_vertices
    for i, class_mask in enumerate(class_masks):
        bit = 1 << i
        m = class_mask
        while m:
            b = m & -m
            masks[b.bit_length() - 1] |= bit
            m ^= b
    return Multicoloring(palette_size, masks)
