"""Netlist and design data model.

A :class:`Design` bundles everything the flow stages exchange:

* a :class:`~repro.layout.technology.Technology`,
* the die area (a :class:`~repro.layout.geometry.Rect`),
* standard :class:`Cell` instances and fixed :class:`Macro` blocks (the
  only placement and routing blockages),
* :class:`Net` connectivity over :class:`Pin` objects.

Cells start unplaced (``cell.position is None``); the placer fills positions
in, the global router adds route data, the DRC stage adds violations.  The
design object is the single source of truth moving down the flow, mirroring
the .def hand-off in the paper's Olympus-SoC flow.

Designs pickle (a flow result crosses to and from worker processes): a pin
leaves its ``net`` out of its pickled state and each :class:`Net` sets it
back on its pins, so pickling never walks pin → net → pin → cell → … down
the whole connectivity graph, whose depth exceeds the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .geometry import Point, Rect
from .technology import Technology

#: Metal layers every macro blocks (wires *and* vias); M4/M5 stay open.
MACRO_BLOCKED_METALS: tuple[int, ...] = (1, 2, 3)


@dataclass(slots=True)
class Pin:
    """A cell pin.

    ``offset`` is relative to the owning cell's lower-left corner; the
    absolute location is only defined once the cell is placed.  ``is_clock``
    marks clock-sink pins and ``ndr`` names a non-default rule on the pin's
    net (both are paper features).
    """

    name: str
    cell: "Cell"
    offset: Point
    net: "Net | None" = None
    is_clock: bool = False

    def __getstate__(self) -> tuple:
        return self.name, self.cell, self.offset, self.is_clock

    def __setstate__(self, state: tuple) -> None:
        self.name, self.cell, self.offset, self.is_clock = state
        self.net = None  # set by the owning Net's __setstate__

    @property
    def position(self) -> Point:
        """Absolute position; requires the owning cell to be placed."""
        cell_pos = self.cell.position
        if cell_pos is None:
            raise RuntimeError(
                f"pin {self.cell.name}/{self.name} accessed before placement"
            )
        return Point(cell_pos.x + self.offset.x, cell_pos.y + self.offset.y)

    @property
    def ndr(self) -> str | None:
        """Name of the non-default rule of the pin's net, if any."""
        return self.net.ndr if self.net is not None else None

    @property
    def full_name(self) -> str:
        return f"{self.cell.name}/{self.name}"


@dataclass(slots=True)
class Cell:
    """A standard-cell instance.

    ``position`` is the lower-left corner after placement, in DBU; the
    placer moves every cell.
    """

    name: str
    width: float
    height: float
    pins: list[Pin] = field(default_factory=list)
    position: Point | None = None

    def add_pin(self, name: str, offset: Point, is_clock: bool = False) -> Pin:
        pin = Pin(name=name, cell=self, offset=offset, is_clock=is_clock)
        self.pins.append(pin)
        return pin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def bbox(self) -> Rect:
        """Placed footprint; requires the cell to be placed."""
        if self.position is None:
            raise RuntimeError(f"cell {self.name} accessed before placement")
        return Rect(
            self.position.x,
            self.position.y,
            self.position.x + self.width,
            self.position.y + self.height,
        )

    @property
    def center(self) -> Point:
        return self.bbox.center


@dataclass(slots=True)
class Macro:
    """A fixed macro block.

    Macros block placement underneath and block routing on the metal layers
    in :data:`MACRO_BLOCKED_METALS` (wires *and* vias, as the paper's
    Fig. 3(c) caption describes).  The top layers M4/M5 stay routable so
    over-macro routing is possible, as in the ISPD-2015 designs.
    """

    name: str
    bbox: Rect

    @property
    def area(self) -> float:
        return self.bbox.area


@dataclass(slots=True)
class Net:
    """A signal net over two or more pins.

    ``ndr`` names a :class:`~repro.layout.technology.NonDefaultRule` applied
    to the whole net.  ``is_clock`` nets have their sink pins flagged as
    clock pins.
    """

    name: str
    pins: list[Pin] = field(default_factory=list)
    ndr: str | None = None
    is_clock: bool = False

    def __getstate__(self) -> tuple:
        return self.name, self.pins, self.ndr, self.is_clock

    def __setstate__(self, state: tuple) -> None:
        self.name, self.pins, self.ndr, self.is_clock = state
        for pin in self.pins:
            pin.net = self

    def connect(self, pin: Pin) -> None:
        if pin.net is not None:
            raise ValueError(f"pin {pin.full_name} already on net {pin.net.name}")
        pin.net = self
        self.pins.append(pin)
        if self.is_clock:
            pin.is_clock = True

    @property
    def degree(self) -> int:
        return len(self.pins)

    def pin_positions(self) -> list[Point]:
        return [pin.position for pin in self.pins]

    def hpwl(self) -> float:
        """Half-perimeter wirelength of the placed net."""
        positions = self.pin_positions()
        if len(positions) < 2:
            return 0.0
        box = Rect.bounding([Rect(p.x, p.y, p.x, p.y) for p in positions])
        return box.width + box.height


@dataclass
class Design:
    """A complete design moving through the flow."""

    name: str
    technology: Technology
    die: Rect
    cells: list[Cell] = field(default_factory=list)
    macros: list[Macro] = field(default_factory=list)
    nets: list[Net] = field(default_factory=list)

    # -- construction -----------------------------------------------------------

    def add_cell(self, name: str, width: float, height: float) -> Cell:
        cell = Cell(name=name, width=width, height=height)
        self.cells.append(cell)
        return cell

    def add_macro(self, name: str, bbox: Rect) -> Macro:
        if not self.die.contains_rect(bbox):
            raise ValueError(f"macro {name} outside die")
        macro = Macro(name=name, bbox=bbox)
        self.macros.append(macro)
        return macro

    def add_net(self, name: str, ndr: str | None = None, is_clock: bool = False) -> Net:
        if ndr is not None:
            self.technology.ndr(ndr)  # validate the rule exists
        net = Net(name=name, ndr=ndr, is_clock=is_clock)
        self.nets.append(net)
        return net

    # -- queries ------------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_pins(self) -> int:
        return sum(len(c.pins) for c in self.cells)

    @property
    def is_placed(self) -> bool:
        return all(c.position is not None for c in self.cells)

    def all_pins(self) -> Iterator[Pin]:
        for cell in self.cells:
            yield from cell.pins

    def signal_nets(self) -> list[Net]:
        """Nets the global router must route (degree >= 2, not clock).

        Clock nets are pre-routed in the paper's flow (clock tree synthesis
        happens before signal GR), so the signal GR stage skips them; their
        sink pins still show up in the clock-pin feature.
        """
        return [n for n in self.nets if n.degree >= 2 and not n.is_clock]

    def total_cell_area(self) -> float:
        return sum(c.area for c in self.cells)

    def total_hpwl(self) -> float:
        """Sum of HPWL over all nets — the placer's objective."""
        return sum(n.hpwl() for n in self.nets)

    def placement_blockage_rects(self) -> list[Rect]:
        """All regions where standard cells must not be placed: the macros."""
        return [m.bbox for m in self.macros]

    def routing_blockage_rects(self, metal_index: int) -> list[Rect]:
        """All regions blocked for routing on the given metal layer."""
        if metal_index not in MACRO_BLOCKED_METALS:
            return []
        return [m.bbox for m in self.macros]

    def validate(self) -> None:
        """Raise if the design violates basic structural invariants."""
        names = set()
        for cell in self.cells:
            if cell.name in names:
                raise ValueError(f"duplicate cell name {cell.name}")
            names.add(cell.name)
        for net in self.nets:
            if net.degree < 1:
                raise ValueError(f"net {net.name} has no pins")
            for pin in net.pins:
                if pin.net is not net:
                    raise ValueError(f"pin {pin.full_name} back-reference broken")
        for macro in self.macros:
            if not self.die.contains_rect(macro.bbox):
                raise ValueError(f"macro {macro.name} outside die")
