"""2D-mesh topology and dimension-ordered (XY) routing."""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from repro.common.errors import ConfigError
from repro.common.types import TileCoord, TileId


class MeshTopology:
    """A square 2D mesh of ``side * side`` tiles.

    Tile ids are row-major: tile ``t`` sits at ``(t % side, t // side)``.
    Routing is deterministic XY (X first, then Y), the standard
    deadlock-free choice for meshes.
    """

    def __init__(self, n_tiles: int):
        side = int(math.isqrt(n_tiles))
        if side * side != n_tiles:
            raise ConfigError(f"mesh requires a square tile count, got {n_tiles}")
        self.n_tiles = n_tiles
        self.side = side

    def _check(self, tile: TileId) -> None:
        if not 0 <= tile < self.n_tiles:
            raise ConfigError(f"tile {tile} out of range 0..{self.n_tiles - 1}")

    def coord(self, tile: TileId) -> TileCoord:
        self._check(tile)
        return TileCoord(tile % self.side, tile // self.side)

    def tile_at(self, coord: TileCoord) -> TileId:
        return coord.y * self.side + coord.x

    def hops(self, src: TileId, dst: TileId) -> int:
        """Manhattan hop count between two tiles."""
        return self.coord(src).hops_to(self.coord(dst))

    def route(self, src: TileId, dst: TileId) -> List[TileId]:
        """The XY path from ``src`` to ``dst``, inclusive of both ends:
        along ``src``'s row to ``dst``'s column, then along that
        column (tile ids step by 1 in x and by ``side`` in y)."""
        self._check(src)
        self._check(dst)
        side = self.side
        turn = src - src % side + dst % side  # src's row, dst's column
        step = 1 if turn >= src else -1
        path = list(range(src, turn + step, step))
        step = side if dst >= turn else -side
        path.extend(range(turn + step, dst + step, step))
        return path

    def links_on_route(self, src: TileId, dst: TileId) -> Iterator[Tuple[TileId, TileId]]:
        """Directed links traversed by the XY route."""
        path = self.route(src, dst)
        for a, b in zip(path, path[1:]):
            yield (a, b)

    def neighbors(self, tile: TileId) -> List[TileId]:
        c = self.coord(tile)
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = c.x + dx, c.y + dy
            if 0 <= nx < self.side and 0 <= ny < self.side:
                out.append(self.tile_at(TileCoord(nx, ny)))
        return out
