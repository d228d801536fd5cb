"""Core placement: choosing which physical cores form a composition.

Compositions are contiguous rectangles of the core mesh, which keeps
operand-routing distances minimal.  :func:`pack` places several
processors of given sizes on one chip for multiprogrammed runs.
"""

from __future__ import annotations

from repro.tflex.config import SHAPES, SystemConfig


def rectangle(cfg: SystemConfig, size: int, origin: tuple[int, int] = (0, 0)) -> list[int]:
    """Core IDs of a ``size``-core rectangle anchored at ``origin``.

    Cores are listed row-major within the rectangle; the participating
    index order determines bank placement.
    """
    if size not in SHAPES:
        raise ValueError(f"composition size {size} not supported (powers of two up to 32)")
    width, height = SHAPES[size]
    ox, oy = origin
    if ox + width > cfg.mesh_width or oy + height > cfg.mesh_height:
        raise ValueError(f"{size}-core rectangle at {origin} exceeds the "
                         f"{cfg.mesh_width}x{cfg.mesh_height} mesh")
    return [
        (oy + y) * cfg.mesh_width + (ox + x)
        for y in range(height)
        for x in range(width)
    ]


def pack(cfg: SystemConfig, sizes: list[int],
         avoid: frozenset[int] | set[int] = frozenset()) -> list[list[int]]:
    """Place several compositions on one chip without overlap.

    Sizes are placed largest-first into the free area, scanning row
    major.  ``avoid`` excludes cores (e.g. ones marked faulty) — the
    composability fault-isolation story: a dead core costs one core's
    capacity, not the chip.  Raises if the workload does not fit.
    """
    if sum(sizes) > cfg.num_cores - len(avoid):
        raise ValueError(f"requested {sum(sizes)} cores > "
                         f"{cfg.num_cores - len(avoid)} available")
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    used = [core in avoid for core in range(cfg.num_cores)]
    result: list[list[int]] = [[] for __ in sizes]

    for index in order:
        size = sizes[index]
        placed = False
        for oy in range(cfg.mesh_height):
            for ox in range(cfg.mesh_width):
                try:
                    cores = rectangle(cfg, size, (ox, oy))
                except ValueError:
                    continue
                if any(used[c] for c in cores):
                    continue
                for c in cores:
                    used[c] = True
                result[index] = cores
                placed = True
                break
            if placed:
                break
        if not placed:
            raise ValueError(f"could not place a {size}-core processor "
                             f"(fragmented mesh for sizes {sizes})")
    return result
