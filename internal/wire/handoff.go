package wire

import "sort"

// BuildHandoffs slices a donor's dump into per-target handoffs under
// the new map: the deterministic state-transfer units of a live
// rebalance, which the router persists and delivers via the "adopt"
// verb. Each handoff's Map is the map being installed, so its Epoch
// versions the handoff and a stale delivery is rejected loudly. Every
// moved client's ack highwater is carried in Acked, even when it has no
// retained messages (every submission may have been rejected past the
// window), so the baseline still transfers.
//
// The result is deterministic: targets ascend, and within each handoff
// acks and messages are canonically sorted, so the serialized handoff
// bytes are a pure function of the donor state and the new map. Unnamed
// messages have no hash key and never move.
func BuildHandoffs(state *Snapshot, newMap ShardMap) ([]*Snapshot, error) {
	ring, err := NewHashRing(newMap)
	if err != nil {
		return nil, err
	}
	byTarget := map[int]*Snapshot{}
	target := func(to int) *Snapshot {
		h := byTarget[to]
		if h == nil {
			h = &Snapshot{Format: SnapshotFormat, Map: newMap, Shard: to, From: state.Shard}
			byTarget[to] = h
		}
		return h
	}
	for _, sm := range state.Messages {
		if sm.Client == "" {
			continue
		}
		if to := ring.Owner(sm.Client); to != state.Shard {
			h := target(to)
			h.Messages = append(h.Messages, sm)
		}
	}
	for _, ack := range state.Acked {
		if ack.Client == "" {
			continue
		}
		if to := ring.Owner(ack.Client); to != state.Shard {
			h := target(to)
			h.Acked = append(h.Acked, ack)
		}
	}
	out := make([]*Snapshot, 0, len(byTarget))
	for _, h := range byTarget {
		SortClientAcks(h.Acked)
		sortSourced(h.Messages)
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out, nil
}

// DonorShards returns the old-map shards whose dumps a rebalance must
// slice into handoffs. The ring's virtual nodes are labeled by shard
// index alone, so two maps with the same Replicas share every surviving
// shard's points exactly: a pure shrink moves keys only FROM the
// removed shards, and a grow moves keys only TO the new ones. That
// makes a shrink's donor set just the removed tail; any other change
// (growth, replica change) must dump every old shard.
func DonorShards(old, next ShardMap) []int {
	or, nr := old.Replicas, next.Replicas
	if or == 0 {
		or = DefaultShardReplicas
	}
	if nr == 0 {
		nr = DefaultShardReplicas
	}
	if next.Shards < old.Shards && or == nr {
		donors := make([]int, 0, old.Shards-next.Shards)
		for i := next.Shards; i < old.Shards; i++ {
			donors = append(donors, i)
		}
		return donors
	}
	donors := make([]int, old.Shards)
	for i := range donors {
		donors[i] = i
	}
	return donors
}
