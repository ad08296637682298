"""Slow, direct references for the slot-matching rules in ``sica``.

``naive_plan``: how ``sica.reorder_to_sica`` realizes a plan.  Given the
arrangement the MILP chose (how many quadruples of each outcome class to
keep), the quadruples are taken in class order and each one takes, in every
setting-pair block, the earliest unused slot carrying its projection, found
by scanning the block from the start.  This is the rule as written, quadratic
in the block size; the arrangement itself comes from ``sica`` so that a
comparison tests only the realization.

``naive_greedy_obstruction`` and ``naive_stable_match`` follow the same
earliest-unused rule for the reorder failure report and for completion, by
copying every slot and removing each one taken.
"""

from bellseries import sica
from bellseries.model import PAIRINGS, Pairing, pairing_blocks


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


def naive_greedy_obstruction(run, blocks):
    """The cascade narration of ``sica._greedy_obstruction``, by list scans."""
    remaining = {
        p: [(i, (run.a_outcomes[i], run.b_outcomes[i])) for i in blocks[p]] for p in PAIRINGS
    }
    steps = []
    for _ in range(min(len(blocks[Pairing.AB]), 64)):
        slot_ab, (a, b) = remaining[Pairing.AB].pop(0)
        pick_abp = next((e for e in remaining[Pairing.ABP] if e[1][0] == a), None)
        if pick_abp is None:
            return (
                f"slot {slot_ab} fixes a={a:+d} under ({Pairing.AB.key}); no slot in "
                f"block ({Pairing.ABP.key}) still offers a={a:+d}. " + " ".join(steps)
            )
        remaining[Pairing.ABP].remove(pick_abp)
        b_prime = pick_abp[1][1]
        pick_apb = next((e for e in remaining[Pairing.APB] if e[1][1] == b), None)
        if pick_apb is None:
            return (
                f"slot {slot_ab} fixes b={b:+d}; no slot in block ({Pairing.APB.key}) "
                f"still offers b={b:+d}. " + " ".join(steps)
            )
        remaining[Pairing.APB].remove(pick_apb)
        a_prime = pick_apb[1][0]
        pick_apbp = next(
            (e for e in remaining[Pairing.APBP] if e[1] == (a_prime, b_prime)), None
        )
        if pick_apbp is None:
            return (
                f"carrying a={a:+d}, b={b:+d} from slot {slot_ab} forces "
                f"b'={b_prime:+d} (slot {pick_abp[0]}) and a'={a_prime:+d} "
                f"(slot {pick_apb[0]}), but no slot in block ({Pairing.APBP.key}) "
                f"offers the pair (a'={a_prime:+d}, b'={b_prime:+d}). " + " ".join(steps)
            )
        remaining[Pairing.APBP].remove(pick_apbp)
        steps.append(
            f"matched slots ({slot_ab},{pick_abp[0]},{pick_apb[0]},{pick_apbp[0]})."
        )
    return "no single forced dead end; joint availability is the binding limit. " + " ".join(
        steps
    )


def naive_stable_match(donors, targets):
    """``sica._stable_match`` by scanning the unused donors from the start."""
    unused = list(donors)
    out = []
    for t_slot, t_val in targets:
        for idx, (d_slot, d_val) in enumerate(unused):
            if d_val == t_val:
                out.append((d_slot, t_slot))
                del unused[idx]
                break
    return out
