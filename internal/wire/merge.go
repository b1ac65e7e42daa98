package wire

// MergeStats describes what MergeShardStates folded together.
type MergeStats struct {
	// Shards is the number of shard states merged.
	Shards int
	// Messages is the total message count across all inputs.
	Messages int
	// Duplicates counts messages dropped because another copy with the
	// same (client, seq) identity was already merged.
	Duplicates int
	// DupCFs counts collective-flow registrations dropped because the
	// same flow was already announced (possibly by another client).
	DupCFs int
	// Records, Reports, and CFs are the unique counts in the merged
	// bundle.
	Records int
	Reports int
	CFs     int
}

// MergeShardStates merges any number of shard dumps into one bundle in
// canonical order. The order is a pure function of the merged message
// *set* — messages sort by (client, seq, type, serialized payload) and
// duplicate (client, seq) identities collapse — so the result is
// byte-identical no matter how the fleet was sharded, how often shards
// crashed and replayed their WALs, or in which order the dumps were
// gathered.
func MergeShardStates(states []*Snapshot) (*Bundle, MergeStats) {
	stats := MergeStats{Shards: len(states)}
	var msgs []SourcedMessage
	for _, st := range states {
		if st != nil {
			stats.Messages += len(st.Messages)
			msgs = append(msgs, st.Messages...)
		}
	}
	sortSourced(msgs)

	bundle := &Bundle{}
	type identity struct {
		client string
		seq    int64
	}
	seen := map[identity]bool{}
	cfSeen := map[Flow]bool{}
	for _, sm := range msgs {
		if sm.Client != "" && sm.Seq > 0 {
			id := identity{client: sm.Client, seq: sm.Seq}
			if seen[id] {
				stats.Duplicates++
				continue
			}
			seen[id] = true
		}
		switch {
		case sm.Type == MsgStep && sm.Step != nil:
			bundle.Records = append(bundle.Records, *sm.Step)
		case sm.Type == MsgReport && sm.Report != nil:
			bundle.Reports = append(bundle.Reports, *sm.Report)
		case sm.Type == MsgCF && sm.CF != nil:
			if cfSeen[*sm.CF] {
				stats.DupCFs++
				continue
			}
			cfSeen[*sm.CF] = true
			bundle.CFs = append(bundle.CFs, *sm.CF)
		}
	}
	SortFlows(bundle.CFs)
	stats.Records = len(bundle.Records)
	stats.Reports = len(bundle.Reports)
	stats.CFs = len(bundle.CFs)
	return bundle, stats
}
