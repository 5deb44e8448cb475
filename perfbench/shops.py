"""Planted-cell shops and the independent result check.

Nothing here imports cellform: the shops, their reference traffic Z* and the
check of every solver result are computed from the routings alone, so a bug
in the library cannot hide itself by agreeing with its own arithmetic.

A planted-cell shop shuffles the machines into hidden cells of at most N
machines. Each part gets a home cell; every routing step stays in that cell
with probability ``stay`` and otherwise goes to a machine outside it. The
planted partition is feasible by construction and its intercellular traffic
Z* is the yardstick for solution quality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Shop:
    """One generated request input: the instance text plus its reference."""

    text: str
    machine_count: int
    max_cell_size: int
    routings: tuple[tuple[int, ...], ...]
    volumes: tuple[Fraction, ...]
    planted_cells: tuple[tuple[int, ...], ...]
    planted_traffic: Fraction


def crossing_traffic(routings, volumes, labels) -> Fraction:
    """Volume-weighted count of routing steps between different labels."""
    total = Fraction(0)
    for routing, volume in zip(routings, volumes):
        for a, b in zip(routing, routing[1:]):
            if labels[a] != labels[b]:
                total += volume
    return total


def _cell_sizes(machine_count: int, max_cell_size: int) -> list[int]:
    cells = -(-machine_count // max_cell_size)
    base, extra = divmod(machine_count, cells)
    return [base + (1 if j < extra else 0) for j in range(cells)]


def _step(rng: random.Random, pool: list[int], previous: int | None) -> int:
    """Uniform machine from ``pool``, never the previous one."""
    while True:
        machine = pool[rng.randrange(len(pool))]
        if machine != previous:
            return machine


def planted_shop(seed: int, index: int, machine_count: int, part_count: int,
                 max_cell_size: int, stay: float) -> Shop:
    """Shop number ``index`` of workload seed ``seed``, deterministically.

    Routing lengths are uniform in [2, 10] and volumes are integers in
    [1, 10]. A shop whose planted traffic would be zero is redrawn from the
    same stream, so Z* is always positive and ratios to it are defined.
    """
    rng = random.Random(f"planted-shop/{seed}/{index}")
    while True:
        machines = list(range(machine_count))
        rng.shuffle(machines)
        cells = []
        start = 0
        for size in _cell_sizes(machine_count, max_cell_size):
            cells.append(sorted(machines[start:start + size]))
            start += size
        labels = [0] * machine_count
        for c, cell in enumerate(cells):
            for v in cell:
                labels[v] = c
        outside = [[v for v in range(machine_count) if labels[v] != c]
                   for c in range(len(cells))]
        routings = []
        volumes = []
        for _ in range(part_count):
            home = rng.randrange(len(cells))
            routing: list[int] = []
            for _ in range(rng.randint(2, 10)):
                previous = routing[-1] if routing else None
                pool = cells[home] if rng.random() < stay else outside[home]
                if pool == [previous]:
                    pool = outside[home]
                routing.append(_step(rng, pool, previous))
            routings.append(tuple(routing))
            volumes.append(Fraction(rng.randint(1, 10)))
        z_star = crossing_traffic(routings, volumes, labels)
        if z_star > 0:
            break
    lines = [f"machines {machine_count}", f"max_cell_size {max_cell_size}"]
    for routing, volume in zip(routings, volumes):
        lines.append(f"part {volume} : "
                     + " ".join(str(v + 1) for v in routing))
    return Shop("\n".join(lines) + "\n", machine_count, max_cell_size,
                tuple(routings), tuple(volumes),
                tuple(tuple(c) for c in sorted(cells)), z_star)


def check_solve(shop: Shop, cells, traffic: Fraction,
                feasible: bool) -> str | None:
    """Why a reported solution is wrong, or None when it checks out.

    The cells must cover every machine exactly once, the reported traffic
    must equal the traffic recomputed from the routings, and the feasible
    flag must agree with the cell-size limit (planted shops carry no
    cohabitation or separation pairs).
    """
    members = sorted(v for cell in cells for v in cell)
    if members != list(range(shop.machine_count)):
        return "cells do not cover every machine exactly once"
    labels = [0] * shop.machine_count
    for c, cell in enumerate(cells):
        for v in cell:
            labels[v] = c
    recomputed = crossing_traffic(shop.routings, shop.volumes, labels)
    if recomputed != traffic:
        return f"reported traffic {traffic} but the routings give {recomputed}"
    fits = all(len(cell) <= shop.max_cell_size for cell in cells)
    if fits != feasible:
        return f"feasible flag {feasible} but cell sizes say {fits}"
    return None
