"""The setup-phase fast kernel: Phase 1-3 gossip without the event heap.

The legacy setup engine drives every dissemination round through the
generic discrete event machinery: one ``ROUND`` timer event and one
``TX`` timer event per node per round, one message record (with a
per-neighbour ``NodeInfo`` snapshot dict) per broadcast, one scheduled
delivery event per surviving fan-out, and one ``on_receive`` dispatch
per directed delivery.  Profiling shows that for the paper's setup
workloads this machinery dominates run time, even though a round is
almost perfectly *regular*: every node draws one jitter offset, maybe
transmits once, and all deliveries land ``propagation_delay`` later.

:func:`run_fast_setup` exploits that regularity, mirroring the design
of the operational kernel in :mod:`repro.app.fast_kernel`:

* the per-round broadcast timeline is derived flat — jitter offsets are
  drawn at the round boundary in exactly the order the ``(time, seq)``
  heap fired ``ROUND`` events (ascending node id), then sorted into
  transmission order;
* node state lives in struct-of-arrays form — int-indexed ``slot`` /
  ``hop`` / ``parent`` / ``normal`` / ``quiet`` lists — and the set
  components of the Figure 2 state (``myN`` membership, the assigned
  view of ``Ninfo``, ``Others`` sets, children, the SLP ``from`` sets)
  are node-indexed **bitmask ints**, so ``_merge_entry`` set unions
  become ``|=`` and sibling ranks become a masked ``bit_count()``;
* each broadcast draws its noise decisions as a one-sender stretch of
  the noise model's block draw (``NoiseModel.draw_block``: the exact
  RNG stream of :meth:`RadioMedium.broadcast`), and its surviving fan-out
  is buffered as a *deferred in-round delivery* — a FIFO whose
  ``(time, seq)`` entries are merged against the remaining
  transmissions of the round, reproducing the heap's interleaving
  exactly (a delivery landing between two jittered transmissions is
  processed between them, and a search/change forward spawned *during*
  a delivery draws its noise inline mid-fan-out, as the legacy
  ``broadcast`` call does);
* the guarded assignment/self-repair actions (``_try_assign``,
  ``_resolve_violations``) run against the arrays at each boundary.

No process object exists on this path: ``run_das_setup`` and
``run_slp_setup`` read the schedule, the counts, the Phase 1 snapshot,
the start node and the decoy path straight off the returned
:class:`FastSetupState`, and register nothing on the radio.  The node
processes of :mod:`repro.das.process` / :mod:`repro.slp.process`, their
wire messages and the event heap load only for the legacy engine.

**Equivalence contract.**  A fast-setup run is bit-identical to the
legacy engine: same RNG draw order (per-node jitter in round order,
noise blocks in neighbour order at transmission time, search/refinement
tie-breaks at delivery time), same ``Schedule``, same trace records and
counters (``SLOT_ASSIGNED`` / ``SLOT_CHANGED`` / ``PHASE`` details
included), same ``messages_sent``.  ``tests/test_fast_setup.py``
enforces this differentially across topologies, noise models and seeds,
including full-length runs at the paper's round counts.

Two details make bit-identity subtle enough to deserve a note:

* *Iteration-order parity.*  Two legacy loops iterate Python
  containers whose order is insertion-history dependent and **observable**
  through ``SLOT_CHANGED`` trace records (several repairs can fire
  within one loop): the strong-ordering scan over the ``my_neighbours``
  set and the collision scan over the ``ninfo`` dict.  The kernel
  therefore maintains a real ``set`` and a real insertion-ordered
  ``dict`` per node *alongside* the bitmasks, mutated by exactly the
  same operation sequence, and iterates those where the legacy engine
  does.  Everything order-insensitive runs on the masks.
* *Timing gate.*  The flat round loop assumes every transmission and
  every delivery (including search/change forward chains) lands
  strictly before the next round boundary; :func:`run_fast_setup`
  checks the worst case statically before its first round and refuses
  a geometry that breaks it (e.g. ``jitter_fraction == 1.0``) with a
  :class:`~repro.errors.ConfigurationError` naming the legacy engine,
  which runs it when asked for (``setup_kernel="legacy"``).

Rounds are *incremental*: work whose inputs did not change since the
last round is skipped, and the skips are exact.  One per-node version
counter, bumped by ``dirty`` at every write to state that the guard or
the dissem snapshot reads (a ``Ninfo`` entry, a new ``myN`` member,
``weak`` turning on, the node's own ``slot``/``hop``/``parent``), drives
four rules:

* *Guard skip.*  ``resolve_violations(i)`` runs at a boundary only when
  ``i``'s version moved since its last check.  The guard draws no RNG,
  records only when it repairs, and reads only ``i``'s own state, so an
  unchanged node would repeat a no-op.  The version is recorded before
  the call: a repair bumps it, and since one pass of the scans is not
  idempotent the node is checked again next round.  A boundary visits
  only the nodes dirtied since the last guard pass and the unassigned
  ones (whose ``try_assign`` may succeed on a new potential parent),
  in ascending order: every other node's guard would do nothing.
* *Silent rounds.*  After a boundary's guard pass, if every node is
  quiet (``DT`` disseminations without news) and normal, every TX of the
  round would be skipped by the dissemination economy, so nothing is
  sent and nothing is delivered.  The round then only advances the RNG
  by its ``n`` jitter draws and builds no transmission list.  The guards
  draw no RNG and a node's guard touches only its own state, so outside
  the hello rounds and the SLP ``startS`` round (where the sink's search
  draws noise between two nodes' jitter draws) the draws may follow the
  whole guard pass, whose end state is what each TX would test.
* *Snapshot reuse.*  A sender whose version is unchanged re-sends the
  ``{self} ∪ myN`` snapshot it built last time.
* *Delta merges.*  Each snapshot entry carries a stamp: the sender
  version whose snapshot first carried the entry's current value.  A
  receiver merges only the entries stamped after the version it last
  merged from that sender (none for a repeated snapshot, only the ones
  this snapshot first carries when it merged the previous one); the rest
  of the delivery — myN, ``weak``, potential parents, ``Others``,
  children — still runs.  ``Ninfo`` entries move only one way: absent
  → ``(h, None)`` → ``(h, s)`` → a lower ``s``, and nothing else ever
  rewrites another node's entry.  An entry stamped at or before that
  version carried the same value in that snapshot, which the receiver
  merged and therefore still dominates, so merging it again would adopt
  nothing.  The merged entries keep snapshot order, so the receiver's
  ``Ninfo`` grows in the same insertion order.  A stamp is kept while
  the sender's entry is the same tuple object; every write makes a new
  tuple, so a stamp is never older than the value it describes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, ProtocolError
from ..simulator import PHASE, SLOT_ASSIGNED, SLOT_CHANGED, Simulator
from ..simulator import trace as trace_kinds
from ..telemetry import active_tracer
from ..topology import NodeId, Topology

def search_ttl(search_distance: int) -> int:
    """The Phase 2 search's hop budget for a given ``SD``.

    Shared by the legacy ``startS`` action, the kernel's in-loop copy
    and the kernel's timing gate — the gate's worst-case chain length
    must track the actual TTL, so all three sites read one formula.
    """
    return 8 * search_distance + 32


def unassigned_decoy_error(node: NodeId) -> ProtocolError:
    """Phase 3 is about to recruit ``node`` onto the decoy path, but it
    has no slot: Phase 1 ended (``setup_periods`` rounds) before the
    node was assigned.  A decoy without a hop count or parent cannot be
    refined, so both setup engines refuse the run here, identically."""
    return ProtocolError(
        f"Phase 3 would recruit node {node} as a decoy, but Phase 1 left "
        "it without a slot (setup_periods too short for this topology)"
    )


class FastSetupState:
    """Struct-of-arrays Figure 2 (+3/+4) state for one setup run.

    Nodes are mapped to dense indices in sorted-id order (so index
    order equals id order, which is what lets sibling ranks and
    ``sorted(...)`` reconstructions run on bitmasks).  See the module
    docstring for which components are masks and which stay as real
    ``set`` / ``dict`` objects for iteration-order parity.
    """

    __slots__ = (
        "order", "index", "nbr_ids", "nbr_idx", "sink_idx",
        "slot", "hop", "parent", "normal", "quiet", "weak",
        "myn_set", "myn_mask", "nin", "aview", "minseen",
        "pparents", "others", "children_mask",
        "from_mask", "is_start", "is_decoy", "search_forwarded",
        "redirect_length", "search_sent", "change_sent",
        "rounds_run", "phase1_sends", "phase1_unassigned",
    )

    def __init__(self, topology: Topology) -> None:
        metrics = topology.metrics
        self.order: Tuple[NodeId, ...] = metrics.order
        self.index: Dict[NodeId, int] = metrics.index
        self.nbr_ids: Tuple[Tuple[NodeId, ...], ...] = metrics.neighbour_ids
        self.nbr_idx: Tuple[Tuple[int, ...], ...] = metrics.adj
        self.sink_idx: int = metrics.index[topology.sink]
        n = len(self.order)
        self.slot: List[Optional[int]] = [None] * n
        self.hop: List[Optional[int]] = [None] * n
        self.parent: List[Optional[NodeId]] = [None] * n
        self.normal: List[bool] = [True] * n
        self.quiet: List[int] = [0] * n
        self.weak: List[bool] = [False] * n
        #: the real my_neighbours sets (iteration-order parity).
        self.myn_set: List[set] = [set() for _ in range(n)]
        self.myn_mask: List[int] = [0] * n
        #: insertion-ordered Ninfo: node id -> (hop, slot) tuples.
        self.nin: List[Dict[NodeId, Tuple]] = [{} for _ in range(n)]
        #: bitmask of indices whose Ninfo entry is assigned (incl. own).
        self.aview: List[int] = [0] * n
        #: running min slot over assigned non-self entries (slots only
        #: ever decrease, so the incremental min is the true min).
        self.minseen: List[Optional[int]] = [None] * n
        self.pparents: List[List[NodeId]] = [[] for _ in range(n)]
        #: parent id -> bitmask of its announced unassigned neighbours.
        self.others: List[Dict[NodeId, int]] = [{} for _ in range(n)]
        self.children_mask: List[int] = [0] * n
        # SLP (Figures 3/4) state; untouched in plain DAS runs.
        self.from_mask: List[int] = [0] * n
        self.is_start: List[bool] = [False] * n
        self.is_decoy: List[bool] = [False] * n
        self.search_forwarded: List[bool] = [False] * n
        self.redirect_length: List[int] = [0] * n
        self.search_sent: List[int] = [0] * n
        self.change_sent: List[int] = [0] * n
        self.rounds_run = 0
        #: SLP runs only: the Phase 1 -> Phase 2 boundary snapshot, taken
        #: at the top of round MSP before its guarded actions — the SEND
        #: count and the ids still without a slot, i.e. exactly what a
        #: protectionless run of the same seed ends with.
        self.phase1_sends: Optional[int] = None
        self.phase1_unassigned: Optional[Tuple[NodeId, ...]] = None

    # ------------------------------------------------------------------
    def _mask_ids(self, mask: int) -> List[NodeId]:
        """The node ids of ``mask``'s set bits, ascending (== sorted)."""
        order = self.order
        ids: List[NodeId] = []
        while mask:
            low = mask & -mask
            ids.append(order[low.bit_length() - 1])
            mask ^= low
        return ids


def run_fast_setup(
    sim: Simulator,
    topology: Topology,
    config,
    search_distance: Optional[int] = None,
    change_length: Optional[int] = None,
    total_rounds: Optional[int] = None,
) -> FastSetupState:
    """Execute the distributed setup phases on flat per-round tables.

    With ``search_distance``/``change_length`` set (and ``total_rounds``
    covering the refinement rounds) the SLP Phases 2/3 run in-loop; left
    ``None``, the run is plain Phase 1 DAS.  The simulator provides the
    RNG, the noise model and the trace recorder — nothing is scheduled
    on its event queue.  See the module docstring for the equivalence
    contract; may raise :class:`~repro.errors.ProtocolError` exactly
    where the legacy engine would (the sink's ``startS`` guard, the
    refinement min-slot guard).

    The loop drains a round's deliveries before the next boundary, so
    the latest possible delivery — ``jitter_fraction × P`` plus the
    longest chain of ``propagation_delay`` hops (one for DAS; for SLP
    ``ttl + 1`` search hops plus ``change_length`` change hops) — must
    land before ``P``.  A geometry past that raises
    :class:`~repro.errors.ConfigurationError` before the first round.
    """
    radio = sim.radio
    delay = radio.propagation_delay
    period = config.dissemination_period
    chain_hops = 1
    if search_distance is not None:
        chain_hops += search_ttl(search_distance) + 2 + (change_length or 0)
    latest = config.jitter_fraction * period + chain_hops * delay
    if latest >= period:
        raise ConfigurationError(
            f"the fast setup kernel cannot run this: jitter_fraction "
            f"{config.jitter_fraction} of the {period} s round plus a "
            f"{chain_hops}-hop chain of {delay} s hops reaches {latest} s, "
            "not inside the round; request the legacy engine "
            "(setup_kernel='legacy', --legacy-setup-kernel) to run it"
        )
    state = FastSetupState(topology)
    rng = sim.rng
    trace = sim.trace
    record = trace.record
    radio.reset()  # the legacy path resets via _start_processes
    noise = radio.noise

    order = state.order
    index = state.index
    nbr_ids = state.nbr_ids
    nbr_idx = state.nbr_idx
    n = len(order)
    node_range = range(n)
    sink_idx = state.sink_idx
    # Each broadcast is a one-sender stretch of the noise model's block
    # draw: it draws exactly what ``delivers_block`` would.
    draw_block = noise.draw_block
    broadcasts = [((order[i], nbr_ids[i]),) for i in node_range]

    slot = state.slot
    hop = state.hop
    parent = state.parent
    normal = state.normal
    quiet = state.quiet
    weak = state.weak
    myn_set = state.myn_set
    myn_mask = state.myn_mask
    nin = state.nin
    aview = state.aview
    minseen = state.minseen
    pparents = state.pparents
    others = state.others
    children_mask = state.children_mask
    from_mask = state.from_mask

    cfg = config
    period = cfg.dissemination_period
    ndp = cfg.neighbour_discovery_periods
    timeout = cfg.dissemination_timeout
    jitter_width = cfg.jitter_fraction * period
    rounds = total_rounds if total_rounds is not None else cfg.setup_periods
    slp = search_distance is not None
    msp = cfg.setup_periods

    sends = delivered = drops = 0
    #: deferred in-round deliveries:
    #: (time, seq, kind, sender_idx, surviving_idx_tuple, payload).
    pending: deque = deque()
    EMPTY = (None, None)

    #: Incremental rounds (see the module docstring): ``ver[i]`` counts
    #: the writes to node state the guard or the dissem snapshot reads;
    #: ``checked[i]`` is ``ver[i]`` at i's last guard check;
    #: ``snap_ver`` / ``snaps`` cache each sender's last snapshot;
    #: ``carried[i]`` maps an entry's node index to the ``(value, stamp)``
    #: of the value ``i``'s snapshots carry for it, stamped with the
    #: version that first carried it; and ``merged_ver[r]`` maps a sender
    #: index to the version of the last snapshot ``r`` merged from it.
    ver = [0] * n
    checked = [-1] * n
    snap_ver = [-1] * n
    snaps: List[Optional[tuple]] = [None] * n
    carried: List[Dict[int, tuple]] = [{} for _ in node_range]
    merged_ver: List[Dict[int, int]] = [{} for _ in node_range]

    #: nodes dirtied since the last guard pass, and the unassigned ones
    #: (ascending): the only nodes a guard pass can act on.
    stale = set()
    waiting = [i for i in node_range if i != sink_idx]

    def dirty(i: int) -> None:
        """Mark node ``i``'s guard inputs and snapshot as changed."""
        ver[i] += 1
        stale.add(i)

    def guard(i: int, time: float) -> None:
        """Node ``i``'s guarded actions at a round boundary."""
        if slot[i] is None:
            try_assign(i, time)
        if slot[i] is not None and checked[i] != ver[i]:
            # Recorded before the call: a repair bumps ver[i], so the
            # node is re-checked next round.
            checked[i] = ver[i]
            resolve_violations(i, time)

    # ------------------------------------------------------------------
    # Figure 2 helpers over the arrays
    # ------------------------------------------------------------------
    def merge(i: int, n_id: NodeId, n_idx: int, h, s) -> bool:
        """``_merge_entry``: freshness-guarded Ninfo adoption."""
        if n_idx == i:
            return False  # own entry is authoritative
        nin_i = nin[i]
        cur = nin_i.get(n_id)
        if cur is None:
            nin_i[n_id] = (h, s)
            dirty(i)
            if s is not None:
                aview[i] |= 1 << n_idx
                ms = minseen[i]
                if ms is None or s < ms:
                    minseen[i] = s
            return True
        if cur[1] is None:
            if s is not None:
                nin_i[n_id] = (h, s)
                dirty(i)
                aview[i] |= 1 << n_idx
                ms = minseen[i]
                if ms is None or s < ms:
                    minseen[i] = s
                return True
            return False
        if s is not None and s < cur[1]:
            nin_i[n_id] = (h, s)
            dirty(i)
            if s < minseen[i]:
                minseen[i] = s
            return True
        return False

    def change_slot(i: int, new_slot: int, reason: str, time: float) -> None:
        old = slot[i]
        if old == new_slot:
            return
        slot[i] = new_slot
        nin[i][order[i]] = (hop[i], new_slot)
        dirty(i)
        normal[i] = False
        quiet[i] = 0
        record(
            time, SLOT_CHANGED, node=order[i], old=old, new=new_slot, reason=reason
        )

    def try_assign(i: int, time: float) -> None:
        nin_i = nin[i]
        best = None
        best_key = None
        for pos, j in enumerate(pparents[i]):
            entry = nin_i.get(j)
            if entry is None or entry[1] is None or entry[0] is None:
                continue
            key = (entry[0], pos)
            if best_key is None or key < best_key:
                best_key = key
                best = j
        if best is None:
            return
        parent[i] = best
        my_hop = nin_i[best][0] + 1
        hop[i] = my_hop
        # Rank among the parent's announced unassigned children: the
        # count of mask bits below our own index (index order == id
        # order, so this is sorted(others ∪ {self}).index(self)).
        omask = others[i].get(best, 0)
        rank = (omask & ((1 << i) - 1)).bit_count()
        my_slot = minseen[i] - rank - 1
        slot[i] = my_slot
        children_mask[i] = myn_mask[i] & ~aview[i]
        nin_i[order[i]] = (my_hop, my_slot)
        dirty(i)
        aview[i] |= 1 << i
        quiet[i] = 0
        record(
            time,
            SLOT_ASSIGNED,
            node=order[i],
            slot=my_slot,
            parent=best,
            hop=my_hop,
        )

    def resolve_violations(i: int, time: float) -> None:
        nin_i = nin[i]
        if weak[i]:
            # Def. 3 obligation only: stay strictly below the parent.
            p = parent[i]
            if p is not None:
                entry = nin_i.get(p)
                if entry is not None and entry[1] is not None and slot[i] >= entry[1]:
                    change_slot(i, entry[1] - 1, "parent-ordering", time)
        else:
            # Strong condition 3, iterating the real set (order parity).
            my_hop = hop[i]
            for nb in myn_set[i]:
                entry = nin_i.get(nb)
                if entry is None or entry[1] is None or entry[0] is None:
                    continue
                if entry[0] == 0:
                    continue  # the sink; Def. 2 allows m = S
                if entry[0] == my_hop - 1 and slot[i] >= entry[1]:
                    change_slot(i, entry[1] - 1, "ordering", time)
        # Collision resolution, iterating the insertion-ordered dict.
        own = order[i]
        for n_id, entry in nin_i.items():
            if n_id == own or entry[1] is None or entry[0] is None:
                continue
            if entry[1] == slot[i]:
                if (hop[i], own) > (entry[0], n_id):
                    change_slot(i, slot[i] - 1, "collision", time)

    # ------------------------------------------------------------------
    # Broadcast / delivery
    # ------------------------------------------------------------------
    def transmit(i: int, kind: str, payload, time: float, seq: int) -> int:
        """SEND accounting + noise block + deferred delivery push.

        Mirrors ``RadioMedium.broadcast``: the noise decisions draw
        *now*, in neighbour order, and the surviving fan-out is queued
        at ``time + delay``.
        Returns the next free sequence number.
        """
        nonlocal sends, drops
        sends += 1
        fanout = nbr_idx[i]
        if not fanout:
            return seq
        lost = draw_block(broadcasts[i], rng)
        if lost:
            drops += len(lost)
            surviving = tuple(r for lane, r in enumerate(fanout) if lane not in lost)
        else:
            surviving = fanout
        if surviving:
            pending.append((time + delay, seq, kind, i, surviving, payload))
            return seq + 1
        return seq

    def min_slot_child(i: int) -> Optional[NodeId]:
        """Figure 3's selection: minimum ``(slot, id)`` assigned child."""
        nin_i = nin[i]
        best = None
        best_key = None
        mask = children_mask[i]
        while mask:
            low = mask & -mask
            mask ^= low
            c = order[low.bit_length() - 1]
            entry = nin_i.get(c)
            if entry is None or entry[1] is None:
                continue
            key = (entry[1], c)
            if best_key is None or key < best_key:
                best_key = key
                best = c
        return best

    def neighbourhood_min_slot(i: int) -> int:
        values = [slot[i]] if slot[i] is not None else []
        nin_i = nin[i]
        for nb in self_neighbour_ids(i):
            entry = nin_i.get(nb)
            if entry is not None and entry[1] is not None:
                values.append(entry[1])
        if not values:
            raise ProtocolError(
                f"node {order[i]} has no slot knowledge to refine"
            )
        return min(values)

    def self_neighbour_ids(i: int) -> List[NodeId]:
        """``sorted(my_neighbours)`` reconstructed from the bitmask."""
        return state._mask_ids(myn_mask[i])

    def forward_search(i: int, distance: int, ttl: int, time: float, seq: int) -> int:
        """Figure 3's one-hop forward (``d > 0`` and fallback branches)."""
        if ttl <= 0:
            return seq  # hop budget exhausted; the search dies here
        fmask = from_mask[i]
        child = min_slot_child(i)
        if (
            distance > 0
            and child is not None
            and not (fmask >> index[child]) & 1
        ):
            target = child
        else:
            p = parent[i]
            fresh = [
                nb
                for nb in self_neighbour_ids(i)
                if nb != p and not (fmask >> index[nb]) & 1
            ]
            if fresh:
                target = fresh[0] if distance > 0 else rng.choice(fresh)
            else:
                revisit = [nb for nb in self_neighbour_ids(i) if nb != p]
                if not revisit:
                    return seq  # isolated leaf: nowhere to go at all
                target = rng.choice(revisit)
        state.search_forwarded[i] = True
        state.search_sent[i] += 1
        return transmit(i, "search", (target, distance, ttl - 1), time, seq)

    def start_refinement(i: int, spares: List[NodeId], time: float, seq: int) -> int:
        """Figure 4 ``startR``: recruit the first decoy node."""
        target = rng.choice(sorted(spares))
        base = neighbourhood_min_slot(i)
        state.change_sent[i] += 1
        return transmit(
            i, "change", (target, base, state.redirect_length[i] - 1), time, seq
        )

    def deliver(event) -> int:
        """Fan one buffered broadcast out, in neighbour order.

        Search/change forwards spawned by a receiver transmit inline —
        mid-fan-out — exactly as the legacy ``broadcast`` call inside
        ``on_receive`` does, pushing their own deferred deliveries.
        """
        nonlocal delivered
        time, seq, kind, s_idx, surviving, payload = event
        delivered += len(surviving)
        s_id = order[s_idx]
        s_bit = 1 << s_idx
        next_seq = seq + 1
        if kind == "dissem":
            s_ver, snap, s_normal, s_parent = payload
            prev_ver, own_stamp, (se_h, se_s), entries, fresh, unassigned = snap
            for r in surviving:
                if s_id not in myn_set[r]:
                    myn_set[r].add(s_id)
                    myn_mask[r] |= s_bit
                    dirty(r)
                # Delta merge: only the entries stamped after the last
                # snapshot r merged from this sender (none for a repeat).
                last = merged_ver[r]
                seen = last.get(s_idx, -1)
                learned = False
                if seen != s_ver:
                    last[s_idx] = s_ver
                    if own_stamp > seen:
                        learned = merge(r, s_id, s_idx, se_h, se_s)
                    if seen == prev_ver:
                        # r merged the sender's previous snapshot: only
                        # the entries this one first carries are new.
                        for (stamp, n_id, n_idx, h, s) in fresh:
                            if merge(r, n_id, n_idx, h, s):
                                learned = True
                    else:
                        for (stamp, n_id, n_idx, h, s) in entries:
                            if stamp > seen and merge(r, n_id, n_idx, h, s):
                                learned = True
                if learned:
                    quiet[r] = 0
                if not s_normal:
                    # receiveU: refinement reached this neighbourhood.
                    if not weak[r]:
                        weak[r] = True
                        # Kept, though redundant: the weak parent check is
                        # implied by the strong scan that last passed (the
                        # parent is a myN member at hop - 1, and no slot
                        # ever reaches the sink's).
                        dirty(r)
                    if (
                        parent[r] == s_id
                        and slot[r] is not None
                        and se_s is not None
                        and slot[r] >= se_s
                    ):
                        change_slot(r, se_s - 1, "parent-update", time)
                    continue
                if slot[r] is None and se_s is not None:
                    if s_id not in pparents[r]:
                        pparents[r].append(s_id)
                    others[r][s_id] = unassigned
                if s_parent == order[r]:
                    children_mask[r] |= s_bit
        elif kind == "hello":
            for r in surviving:
                # Both bumps are kept, though redundant: hello rounds
                # end before the first guard check and snapshot.
                if s_id not in myn_set[r]:
                    myn_set[r].add(s_id)
                    myn_mask[r] |= s_bit
                    dirty(r)
                if s_id not in nin[r]:
                    nin[r][s_id] = EMPTY
                    dirty(r)
        elif kind == "search":
            target, distance, ttl = payload
            for r in surviving:
                from_mask[r] |= s_bit
                if not weak[r]:
                    weak[r] = True
                    dirty(r)  # kept; see the receiveU note on redundancy
                if target != order[r]:
                    continue
                if distance > 0:
                    next_seq = forward_search(r, distance - 1, ttl, time, next_seq)
                    continue
                # d = 0: can this node host the redirection?
                p = parent[r]
                fmask = from_mask[r]
                spares = [
                    j
                    for j in pparents[r]
                    if j != p and j != s_id and not (fmask >> index[j]) & 1
                ]
                if spares:
                    state.is_start[r] = True
                    state.redirect_length[r] = change_length
                    record(time, PHASE, phase="start-node", node=order[r])
                    next_seq = start_refinement(r, spares, time, next_seq)
                else:
                    next_seq = forward_search(r, 0, ttl, time, next_seq)
        else:  # change
            target, base, remaining = payload
            for r in surviving:
                if not weak[r]:
                    weak[r] = True
                    dirty(r)  # kept; see the receiveU note on redundancy
                from_mask[r] |= s_bit
                if target != order[r]:
                    continue
                p = parent[r]
                fmask = from_mask[r]
                candidates = [
                    nb
                    for nb in self_neighbour_ids(r)
                    if nb != p and not (fmask >> index[nb]) & 1
                ]
                if candidates and slot[r] is None:
                    raise unassigned_decoy_error(order[r])
                if remaining > 0 and candidates:
                    state.is_decoy[r] = True
                    change_slot(r, base - 1, "decoy", time)
                    new_base = neighbourhood_min_slot(r)
                    new_target = rng.choice(candidates)
                    state.change_sent[r] += 1
                    next_seq = transmit(
                        r,
                        "change",
                        (new_target, new_base, remaining - 1),
                        time,
                        next_seq,
                    )
                elif remaining == 0 and candidates:
                    # Final decoy node: adopt the slot, open the updates.
                    state.is_decoy[r] = True
                    change_slot(r, base - 1, "decoy", time)
        return next_seq

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    # Phase spans: `setup.phase1` covers neighbour discovery + DAS
    # assignment, switching to `setup.phase23` at the startS round
    # boundary (SLP runs only).  One open span; closed in the finally.
    tracer = active_tracer()
    phase_span = None
    if tracer is not None:
        phase_span = tracer.begin("setup.phase1", rounds=rounds, slp=slp)
    try:
        # The sink's Figure 2 `init`, fired by Process.start at t = 0.
        hop[sink_idx] = 0
        parent[sink_idx] = None
        slot[sink_idx] = cfg.num_slots
        nin[sink_idx][order[sink_idx]] = (0, cfg.num_slots)
        # Kept, though redundant: precedes every guard check and snapshot.
        dirty(sink_idx)
        aview[sink_idx] |= 1 << sink_idx
        record(0.0, SLOT_ASSIGNED, node=order[sink_idx], slot=cfg.num_slots)

        boundary = 0.0
        # ``rng.uniform(0.0, w)`` is ``0.0 + (w - 0.0) * rng.random()``:
        # the same float as ``w * rng.random()``, one call fewer.
        rand = rng.random
        for rnd in range(rounds):
            state.rounds_run = rnd
            if slp and rnd == msp:
                state.phase1_sends = sends
                state.phase1_unassigned = tuple(
                    order[i] for i in node_range if slot[i] is None
                )
                if tracer is not None:
                    tracer.end(phase_span)
                    phase_span = tracer.begin(
                        "setup.phase23", search_distance=search_distance
                    )
            # --- boundary: guarded actions + jitter draws, in the heap's
            # ROUND-event order (ascending node id, preserved round over
            # round because each firing re-schedules its own successor).
            # A guard acts only on an unassigned node or one dirtied
            # since its last check, and draws no RNG, so outside the
            # hello rounds and the startS round (whose search draws noise
            # between two nodes' jitter) the guards run on those nodes
            # alone, and the draws follow the guard pass.
            hello_round = rnd < ndp
            txs: List[Tuple[float, int, int]] = []
            seq = 0
            if hello_round or (slp and rnd == msp):
                if not hello_round:
                    stale.clear()
                for i in node_range:
                    if not hello_round:
                        guard(i, boundary)
                    txs.append((boundary + jitter_width * rand(), seq, i))
                    seq += 2  # the TX push, then the next ROUND push
                    if slp and rnd == msp and i == sink_idx:
                        # Figure 3 `startS`, fired inside the sink's ROUND
                        # event right after it re-armed its timers.
                        target = min_slot_child(sink_idx)
                        if target is None:
                            raise ProtocolError(
                                "the sink has no assigned children to search via"
                            )
                        record(
                            boundary,
                            PHASE,
                            phase="search-start",
                            node=order[sink_idx],
                            target=target,
                        )
                        state.search_sent[sink_idx] += 1
                        seq = transmit(
                            sink_idx,
                            "search",
                            (target, search_distance, search_ttl(search_distance)),
                            boundary,
                            seq,
                        )
            else:
                todo = sorted(stale.union(waiting))
                stale.clear()
                for i in todo:
                    guard(i, boundary)
                # Some node fails the TX's own DT test: a loud round.
                if min(quiet) < timeout or not all(normal):
                    txs = [
                        (boundary + jitter_width * rand(), 2 * i, i)
                        for i in node_range
                    ]
                    seq = 2 * n
                else:
                    # Silent round: every node is quiet and normal, so
                    # each TX would be skipped and nothing is delivered.
                    # Only the n jitter draws remain; ``random()`` takes
                    # two 32-bit words of the generator, and
                    # ``getrandbits(64 * n)`` takes exactly 2n.
                    rng.getrandbits(64 * n)
            if waiting and not hello_round:
                waiting = [i for i in waiting if slot[i] is None]

            # --- in-round: merge jittered transmissions with deferred
            # deliveries in exact (time, seq) order.
            txs.sort()
            qi = 0
            ntx = len(txs)
            while qi < ntx or pending:
                # Time, then seq, never whole tuples: keys can tie on both.
                if pending:
                    head = pending[0]
                    if qi >= ntx or head[0] < txs[qi][0] or (
                        head[0] == txs[qi][0] and head[1] < txs[qi][1]
                    ):
                        seq = deliver(pending.popleft())
                        continue
                t, s, i = txs[qi]
                qi += 1
                if hello_round:
                    seq = transmit(i, "hello", None, t, seq)
                    continue
                # Dissemination economy (Table I's DT).
                if quiet[i] >= timeout and normal[i]:
                    continue
                quiet[i] += 1
                # Snapshot {self} ∪ myN at transmission time, in the
                # legacy dict's insertion order (own entry first, then
                # the my_neighbours set's iteration order) — receivers
                # create Ninfo entries in encounter order, and that
                # order is observable through the collision scan.  An
                # unchanged version means an unchanged snapshot.
                v = ver[i]
                if snap_ver[i] == v:
                    snap = snaps[i]
                else:
                    nin_i = nin[i]
                    carried_i = carried[i]
                    own_entry = nin_i.get(order[i], EMPTY)
                    # An entry keeps its stamp while it carries the same
                    # value object; every Ninfo write is a new tuple.
                    prev = carried_i.get(i)
                    if prev is None or prev[0] is not own_entry:
                        prev = carried_i[i] = (own_entry, v)
                    own_stamp = prev[1]
                    entries = []
                    unassigned = 0
                    for nb in myn_set[i]:
                        e = nin_i.get(nb, EMPTY)
                        nb_idx = index[nb]
                        if e[1] is None:
                            unassigned |= 1 << nb_idx
                            if e[0] is None:
                                continue  # (⊥, ⊥): nothing to merge
                        prev = carried_i.get(nb_idx)
                        if prev is None or prev[0] is not e:
                            prev = carried_i[nb_idx] = (e, v)
                        entries.append((prev[1], nb, nb_idx, e[0], e[1]))
                    fresh = [entry for entry in entries if entry[0] == v]
                    snap = snaps[i] = (
                        snap_ver[i], own_stamp, own_entry, entries, fresh, unassigned
                    )
                    snap_ver[i] = v
                seq = transmit(
                    i, "dissem", (v, snap, normal[i], parent[i]), t, seq
                )
                # The update has been announced; back to normal mode.
                normal[i] = True
            boundary += period
            state.rounds_run = rnd + 1
    finally:
        trace.bump_many(trace_kinds.SEND, sends)
        trace.bump_many(trace_kinds.DELIVER, delivered)
        trace.bump_many(trace_kinds.DROP, drops)
        if phase_span is not None:
            tracer.end(phase_span)

    return state
