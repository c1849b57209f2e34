"""DEF-lite: a human-readable design exchange format.

A deliberately small, DEF-inspired text format capturing everything the
flow needs — die, macros (with blocked layers), cells (with optional
placement), pins and nets (with NDR / clock flags).  DEF-lite files are
stable across code versions, diffable, and human-editable, making them the
design interchange format for sharing testcases and bug reports.

Example::

    DEFLITE 1
    DESIGN demo
    UNITS 100
    DIEAREA 0 0 7920 7920
    MACRO macro_1 240 480 1200 1440 BLOCKS M1 M2 M3
    CELL c0 40 120 PLACED 100 240
      PIN p0 13 37
      PIN p1 20 80 CLOCK
    CELL c1 60 120 UNPLACED
      PIN p0 30 60
    NET n0 NDR ndr_2w2s PINS c0/p0 c1/p0
    NET clk0 CLOCK PINS c0/p1
    END

Coordinates are DBU integers or decimals; pin offsets are cell-relative.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, TextIO

from ..layout.geometry import Point, Rect
from ..layout.netlist import Design
from ..layout.technology import Technology, make_ispd2015_like_technology

FORMAT_TAG = "DEFLITE"
FORMAT_VERSION = 1


class DefLiteError(ValueError):
    """Raised on malformed DEF-lite input."""


# --------------------------------------------------------------------------- write


def _fmt(x: float) -> str:
    """Compact numeric formatting: integers lose their decimal point."""
    return f"{int(x)}" if float(x).is_integer() else f"{x:g}"


def write_deflite(design: Design, path: str | Path) -> Path:
    """Serialise a design (placed or not) to DEF-lite text."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        _write(design, fh)
    return path


def dumps_deflite(design: Design) -> str:
    """DEF-lite text of a design as a string."""
    import io

    buf = io.StringIO()
    _write(design, buf)
    return buf.getvalue()


def _write(design: Design, fh: TextIO) -> None:
    fh.write(f"{FORMAT_TAG} {FORMAT_VERSION}\n")
    fh.write(f"DESIGN {design.name}\n")
    fh.write(f"UNITS {design.technology.dbu_per_micron}\n")
    d = design.die
    fh.write(
        f"DIEAREA {_fmt(d.xlo)} {_fmt(d.ylo)} {_fmt(d.xhi)} {_fmt(d.yhi)}\n"
    )
    for m in design.macros:
        blocks = " ".join(f"M{i}" for i in m.blocked_metal_indices)
        b = m.bbox
        fh.write(
            f"MACRO {m.name} {_fmt(b.xlo)} {_fmt(b.ylo)} "
            f"{_fmt(b.xhi)} {_fmt(b.yhi)} BLOCKS {blocks}\n"
        )
    for cell in design.cells:
        place = (
            f"PLACED {_fmt(cell.position.x)} {_fmt(cell.position.y)}"
            if cell.position is not None
            else "UNPLACED"
        )
        fixed = " FIXED" if cell.is_fixed else ""
        fh.write(f"CELL {cell.name} {_fmt(cell.width)} {_fmt(cell.height)} {place}{fixed}\n")
        for pin in cell.pins:
            clock = " CLOCK" if pin.is_clock else ""
            fh.write(
                f"  PIN {pin.name} {_fmt(pin.offset.x)} {_fmt(pin.offset.y)}{clock}\n"
            )
    for net in design.nets:
        attrs = ""
        if net.is_clock:
            attrs += " CLOCK"
        if net.ndr is not None:
            attrs += f" NDR {net.ndr}"
        pins = " ".join(f"{p.cell.name}/{p.name}" for p in net.pins)
        fh.write(f"NET {net.name}{attrs} PINS {pins}\n")
    fh.write("END\n")


# --------------------------------------------------------------------------- read


def read_deflite(
    path: str | Path, technology: Technology | None = None
) -> Design:
    """Parse a DEF-lite file back into a :class:`Design`."""
    with open(path) as fh:
        return _parse(fh.read().splitlines(), technology)


def loads_deflite(text: str, technology: Technology | None = None) -> Design:
    """Parse DEF-lite text."""
    return _parse(text.splitlines(), technology)


def _tokens(lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


def _parse(lines: list[str], technology: Technology | None) -> Design:
    tech = technology or make_ispd2015_like_technology()
    it = _tokens(lines)

    def fail(lineno: int, message: str) -> DefLiteError:
        return DefLiteError(f"line {lineno}: {message}")

    try:
        lineno, header = next(it)
    except StopIteration:
        raise DefLiteError("empty file")
    if header[:1] != [FORMAT_TAG] or len(header) < 2:
        raise fail(lineno, f"expected '{FORMAT_TAG} <version>' header")
    if int(header[1]) != FORMAT_VERSION:
        raise fail(lineno, f"unsupported version {header[1]}")

    design: Design | None = None
    die: Rect | None = None
    name: str | None = None
    current_cell = None
    pin_lookup: dict[str, object] = {}

    for lineno, tok in it:
        kind = tok[0]
        if kind == "DESIGN":
            name = tok[1]
        elif kind == "UNITS":
            pass  # informational; the technology defines DBU
        elif kind == "DIEAREA":
            if name is None:
                raise fail(lineno, "DIEAREA before DESIGN")
            die = Rect(*map(float, tok[1:5]))
            design = Design(name=name, technology=tech, die=die)
        elif kind == "MACRO":
            if design is None:
                raise fail(lineno, "MACRO before DIEAREA")
            bbox = Rect(*map(float, tok[2:6]))
            macro = design.add_macro(tok[1], bbox)
            if "BLOCKS" in tok:
                layer_names = tok[tok.index("BLOCKS") + 1 :]
                macro.blocked_metal_indices = tuple(
                    int(l[1:]) for l in layer_names
                )
        elif kind == "CELL":
            if design is None:
                raise fail(lineno, "CELL before DIEAREA")
            current_cell = design.add_cell(tok[1], float(tok[2]), float(tok[3]))
            if "PLACED" in tok:
                i = tok.index("PLACED")
                current_cell.position = Point(float(tok[i + 1]), float(tok[i + 2]))
            if "FIXED" in tok:
                current_cell.is_fixed = True
        elif kind == "PIN":
            if current_cell is None:
                raise fail(lineno, "PIN outside a CELL")
            pin = current_cell.add_pin(
                tok[1], Point(float(tok[2]), float(tok[3])), is_clock="CLOCK" in tok
            )
            pin_lookup[f"{current_cell.name}/{pin.name}"] = pin
        elif kind == "NET":
            if design is None:
                raise fail(lineno, "NET before DIEAREA")
            is_clock = "CLOCK" in tok
            ndr = None
            if "NDR" in tok:
                ndr = tok[tok.index("NDR") + 1]
            if "PINS" not in tok:
                raise fail(lineno, "NET without PINS")
            net = design.add_net(tok[1], ndr=ndr, is_clock=is_clock)
            for ref in tok[tok.index("PINS") + 1 :]:
                pin = pin_lookup.get(ref)
                if pin is None:
                    raise fail(lineno, f"unknown pin reference {ref!r}")
                net.connect(pin)  # type: ignore[arg-type]
        elif kind == "END":
            break
        else:
            raise fail(lineno, f"unknown record {kind!r}")

    if design is None:
        raise DefLiteError("missing DESIGN/DIEAREA records")
    design.validate()
    return design
