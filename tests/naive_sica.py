"""Slow, direct reference for how ``sica.reorder_to_sica`` realizes a plan.

Given the arrangement the MILP chose (how many quadruples of each outcome
class to keep), the quadruples are taken in class order and each one takes,
in every setting-pair block, the earliest unused slot carrying its projection,
found by scanning the block from the start.  This is the rule as written,
quadratic in the block size; the arrangement itself comes from ``sica`` so
that a comparison tests only the realization.
"""

from bellseries import sica
from bellseries.model import PAIRINGS, pairing_blocks


def naive_plan(run):
    """(block_orders, discarded_slots, kept_per_block) by first-match scans."""
    blocks = pairing_blocks(run)
    best, chosen = sica._max_joint_arrangement(sica._block_pairs(run, blocks))
    quads = []
    for q in sorted(chosen):
        quads.extend([q] * chosen[q])
    block_orders = {}
    kept = set()
    for p in PAIRINGS:
        unused = list(blocks[p])
        order = []
        for q in quads:
            need = sica._class_pair(q, p)
            for idx, slot in enumerate(unused):
                if (run.a_outcomes[slot], run.b_outcomes[slot]) == need:
                    order.append(slot)
                    del unused[idx]
                    break
            else:
                raise AssertionError("arrangement not realizable")
        block_orders[p] = tuple(order)
        kept.update(order)
    discarded = tuple(i for i in range(run.slots) if i not in kept)
    return block_orders, discarded, best
