"""Technology description: metal/via layer stack, track geometry, design rules.

The paper targets a 65 nm flow with **five routing layers** (M1..M5) and the
four via layers between them (V1..V4).  In our substrate M1 is reserved for
intra-cell pin access, so signal global routing uses M2..M5 — matching the
congestion-feature layers the paper's Fig. 3/4 reference (edM3/edM4/edM5 edge
congestion, v1V2/v1V3 via congestion).

A :class:`Technology` instance carries everything downstream stages need:

* routing direction and track pitch per metal layer (alternating H/V),
* per-g-cell-edge wire capacity and per-g-cell via capacity,
* the one non-default rule (NDR): NDR nets consume extra tracks.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Routing direction constants.
HORIZONTAL = "H"
VERTICAL = "V"

#: index of the lowest metal layer available to signal global routing
FIRST_GR_LAYER = 2
#: fraction of nominal track capacity left after power/clock pre-routes
CAPACITY_DERATE = 0.85
#: routing tracks of the densest layer spanning one g-cell
GCELL_TRACKS = 12
DBU_PER_MICRON = 100


@dataclass(frozen=True, slots=True)
class MetalLayer:
    """One metal routing layer.

    ``index`` is 1-based (M1 has index 1).  ``direction`` is the preferred
    routing direction; the global router only uses the preferred direction,
    as is standard for GR capacity models.
    """

    index: int
    direction: str
    pitch: float  # track-to-track pitch in DBU

    @property
    def name(self) -> str:
        return f"M{self.index}"

    @property
    def is_horizontal(self) -> bool:
        return self.direction == HORIZONTAL


@dataclass(frozen=True, slots=True)
class ViaLayer:
    """A via (cut) layer connecting metal ``index`` and ``index + 1``."""

    index: int  # V1 connects M1-M2
    spacing: float  # minimum via-to-via spacing in DBU

    @property
    def name(self) -> str:
        return f"V{self.index}"


@dataclass(frozen=True, slots=True)
class NonDefaultRule:
    """A non-default routing rule.

    Nets tagged with an NDR use wider wire and spacing, therefore consuming
    ``track_cost`` routing tracks instead of 1 — that is how NDRs make
    congestion (and DRC risk) worse, which is why the paper counts NDR pins
    as a feature.
    """

    name: str
    width_multiplier: float
    spacing_multiplier: float

    @property
    def track_cost(self) -> int:
        """Number of ordinary tracks one NDR wire effectively occupies."""
        cost = (self.width_multiplier + self.spacing_multiplier) / 2.0
        return max(1, round(cost))


@dataclass(frozen=True)
class Technology:
    """Full technology description for the reproduction flow."""

    name: str
    dbu_per_micron: int
    metal_layers: tuple[MetalLayer, ...]
    via_layers: tuple[ViaLayer, ...]
    ndr_rules: tuple[NonDefaultRule, ...]
    gcell_size: float  # g-cell edge length in DBU (square g-cells)
    site_width: float  # placement site width in DBU
    row_height: float  # standard-cell row height in DBU

    # -- layer lookups ---------------------------------------------------------

    def metal(self, index: int) -> MetalLayer:
        """Metal layer by 1-based index."""
        return self.metal_layers[index - 1]

    def via(self, index: int) -> ViaLayer:
        """Via layer by 1-based index (V1 connects M1 and M2)."""
        return self.via_layers[index - 1]

    @property
    def num_metal_layers(self) -> int:
        return len(self.metal_layers)

    @property
    def num_via_layers(self) -> int:
        return len(self.via_layers)

    @property
    def gr_metal_indices(self) -> tuple[int, ...]:
        """Metal layers used by the global router (M2..Mtop)."""
        return tuple(
            layer.index
            for layer in self.metal_layers
            if layer.index >= FIRST_GR_LAYER
        )

    # -- capacity model ----------------------------------------------------------

    def edge_capacity(self, metal_index: int) -> int:
        """Wire capacity of one g-cell border edge on ``metal_index``.

        The maximum number of wires that may cross a g-cell boundary equals
        the number of routing tracks of that layer spanning the g-cell,
        derated for pre-routes.
        """
        layer = self.metal(metal_index)
        tracks = int(self.gcell_size / layer.pitch)
        return max(1, int(tracks * CAPACITY_DERATE))

    def via_capacity(self, via_index: int) -> int:
        """Via capacity of one g-cell on via layer ``via_index``.

        Modelled as a 2-D array of legal via sites at the via spacing pitch,
        derated like the metal capacity.
        """
        via = self.via(via_index)
        sites_per_axis = max(1, int(self.gcell_size / (2.5 * via.spacing)))
        return max(1, int(sites_per_axis * sites_per_axis * CAPACITY_DERATE))

    def ndr(self, name: str) -> NonDefaultRule:
        for rule in self.ndr_rules:
            if rule.name == name:
                return rule
        raise KeyError(f"unknown NDR rule: {name!r}")


def make_ispd2015_like_technology() -> Technology:
    """Build the 5-metal-layer technology used across the repo.

    The absolute numbers are scaled so a g-cell holds ``GCELL_TRACKS`` tracks
    on the densest layer — the paper's congestion features then live in a
    realistic small-integer range (capacities around 8-20 per edge), like the
    examples in its Fig. 4 (edge loads of 0-40, via loads of 20-40).
    """
    pitch = 20.0  # DBU; 0.2 um at 100 DBU/um
    gcell = GCELL_TRACKS * pitch
    metals = (
        MetalLayer(1, HORIZONTAL, pitch),
        MetalLayer(2, VERTICAL, pitch),
        MetalLayer(3, HORIZONTAL, pitch),
        MetalLayer(4, VERTICAL, pitch * 1.25),
        MetalLayer(5, HORIZONTAL, pitch * 1.25),
    )
    vias = (
        ViaLayer(1, 14.0),
        ViaLayer(2, 14.0),
        ViaLayer(3, 16.0),
        ViaLayer(4, 18.0),
    )
    ndrs = (NonDefaultRule("ndr_2w2s", 2.0, 2.0),)  # the ISPD-2015 style 2x rule
    return Technology(
        name="repro65",
        dbu_per_micron=DBU_PER_MICRON,
        metal_layers=metals,
        via_layers=vias,
        ndr_rules=ndrs,
        gcell_size=gcell,
        site_width=pitch / 2.0,
        row_height=pitch * 6.0,
    )
