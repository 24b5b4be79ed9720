"""Privacy-preserving integrity auditing for network-coded storage."""

from .audit import (Challenge, KeyMaterial, NodePayload, Proof, aggregate_coeffs,
                    gen_challenge, gen_proof, keygen, setup_file, verified_rows,
                    verify_block, verify_proof)
from .blocks import (CodedBlock, FileManifest, SystemParams, UndecodableError,
                     combine_blocks, decode_file, decode_source_data,
                     make_source_block, make_source_blocks)
from .cluster import Cluster, Fault, make_layout, spawn_cluster
from .dynamics import append_block, delete_block, insert_block, update_block
from .extractor import ExtractionError, extract_node
from .ncrypt import Voucher, dec, enc
from .repair import (PlanningError, RepairPlan, make_repair_blocks,
                     plan_exact_repair, plan_functional_repair,
                     reconstruct_node, refresh_manifest, repair_node)
from .spacemac import mac

__version__ = "0.1.0"

__all__ = [
    "Challenge", "Cluster", "CodedBlock", "ExtractionError",
    "Fault", "FileManifest", "KeyMaterial", "NodePayload", "PlanningError",
    "Proof", "RepairPlan", "SystemParams", "UndecodableError", "Voucher",
    "aggregate_coeffs", "append_block", "combine_blocks", "dec", "decode_file",
    "decode_source_data", "delete_block", "enc", "extract_node",
    "gen_challenge", "gen_proof", "insert_block", "keygen", "mac",
    "make_layout", "make_repair_blocks", "make_source_block",
    "make_source_blocks", "plan_exact_repair", "plan_functional_repair",
    "reconstruct_node", "refresh_manifest", "repair_node", "setup_file",
    "spawn_cluster", "update_block", "verified_rows", "verify_block",
    "verify_proof",
]
