package wire

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Message type tags of the analyzer wire protocol. They are defined once,
// here; internal/analyzerd's TypeStep/TypeReport/TypeCF alias them.
const (
	MsgStep   = "step"
	MsgReport = "report"
	MsgCF     = "cf"
)

// SourcedMessage is one accepted ingest message with its provenance:
// which client submitted it and at which sequence number. The analyzer
// retains these as its only state, so that any subset of shard dumps
// merges into one deterministic bundle — (client, seq) is stable across
// shard crashes, resubmission, and re-sharding, which is what makes the
// merged diagnosis byte-identical to an unbroken run.
type SourcedMessage struct {
	Client string      `json:"client,omitempty"`
	Seq    int64       `json:"seq,omitempty"`
	Type   string      `json:"type"`
	Step   *StepRecord `json:"step,omitempty"`
	Report *Report     `json:"report,omitempty"`
	CF     *Flow       `json:"cf,omitempty"`
}

// ClientAck is one client's acknowledged-sequence highwater — the dedup
// state that lets a restarted (or newly owning) analyzer suppress
// resubmissions of messages it had already made durable.
type ClientAck struct {
	Client string `json:"client"`
	Seq    int64  `json:"seq"`
}

// SnapshotFormat is the supported Snapshot format version. Format 1 was
// the standalone daemon's derived record/report/CF snapshot; it is no
// longer read.
const SnapshotFormat = 2

// Snapshot is the one serialized form of analyzer state: a daemon's
// snapshot.json, its reply to the "dump" verb, and each rebalance
// handoff unit. A standalone daemon is shard 0 of a 1-shard map, so the
// header is always meaningful.
type Snapshot struct {
	Format int `json:"format"`
	// Map is the shard map under which Shard owns the messages: the map
	// the daemon was running under, or for a handoff the map being
	// installed.
	Map ShardMap `json:"map"`
	// Shard is the owning shard's index in [0, Map.Shards): the dumping
	// or snapshotting daemon, or a handoff's target.
	Shard int `json:"shard"`
	// From is a handoff's donor shard under the old map.
	From int `json:"from,omitempty"`
	// NextLSN is the write-ahead-log horizon of a snapshot.json: log
	// entries at or after it are not folded into Messages.
	NextLSN uint64 `json:"next_lsn,omitempty"`
	// Messages holds every accepted message — in local ingest order for
	// snapshots and dumps, in canonical order for handoffs.
	Messages []SourcedMessage `json:"messages,omitempty"`
	// Acked carries each client's acknowledged-sequence highwater,
	// sorted by client. It is the true highwater, not the max retained
	// message seq: a permanently rejected submission advances the
	// window without leaving a message behind. Merging ignores it.
	Acked []ClientAck `json:"acked,omitempty"`
}

// HandoffFilename names a handoff's on-disk artifact; the triple is
// unique within one rebalance.
func (s *Snapshot) HandoffFilename() string {
	return fmt.Sprintf("epoch-%d-from-%d-to-%d.json", s.Map.Epoch, s.From, s.Shard)
}

// SortFlows sorts flows in canonical (src, dst, sport, dport, proto)
// order, for deterministic serialization of flow sets.
func SortFlows(s []Flow) { sortSlice(s, flowLess) }

// SortClientAcks sorts ack windows by client ID.
func SortClientAcks(s []ClientAck) {
	sort.SliceStable(s, func(i, j int) bool { return s[i].Client < s[j].Client })
}

// sortSourced orders messages canonically by (client, seq, type,
// serialized payload). The order is a pure function of the message set,
// so merged bundles and handoff files do not depend on any shard's local
// ingest order. Diagnosis does not depend on input order either; the
// sort only buys canonical bytes.
func sortSourced(msgs []SourcedMessage) {
	ties := make([]string, len(msgs))
	for i, sm := range msgs {
		if b, err := json.Marshal(sm); err == nil {
			ties[i] = string(b) // plain DTOs cannot fail to marshal
		}
	}
	order := make([]int, len(msgs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := msgs[order[x]], msgs[order[y]]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return ties[order[x]] < ties[order[y]]
	})
	sorted := make([]SourcedMessage, len(msgs))
	for i, idx := range order {
		sorted[i] = msgs[idx]
	}
	copy(msgs, sorted)
}
