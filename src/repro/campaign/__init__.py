"""Design-space campaigns: 1000×-scale sweeps around the paper machines.

Three layers:

:mod:`repro.campaign.generator`
    Seeded, stratified, geometry-deduplicated sampling of machine
    variants around the Table IV anchors.

:mod:`repro.campaign.runner`
    The driver (generate, then each shard in order, then fold) with
    shard-level checkpointing and byte-identical resume.

:mod:`repro.campaign.store`
    The columnar on-disk result matrix (one memory-mapped ``.npy`` per
    metric) that analysis reads incrementally.
"""

from repro.campaign.generator import (
    generate_machines,
    machines_digest,
    structure_key,
    variant_name,
)
from repro.campaign.runner import (
    CampaignConfig,
    CampaignRunner,
    pair_digest,
)
from repro.campaign.store import CampaignStore, schema_checksum

__all__ = [
    "CampaignConfig",
    "CampaignRunner",
    "CampaignStore",
    "generate_machines",
    "machines_digest",
    "pair_digest",
    "schema_checksum",
    "structure_key",
    "variant_name",
]
