package analyzerd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"vedrfolnir/internal/wire"
)

// shardServe starts an in-process fleet shard with the given map/index
// and optional durability dir.
func shardServe(t *testing.T, m wire.ShardMap, index int, dir string) *Server {
	t.Helper()
	cfg := DefaultServerConfig()
	cfg.Shard = &ShardConfig{Map: m, Index: index}
	if dir != "" {
		cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: 3}
	}
	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	return srv
}

// ownedAndDisowned finds one client name owned by index and one owned by
// another shard, under m.
func ownedAndDisowned(t *testing.T, m wire.ShardMap, index int) (owned, disowned string) {
	t.Helper()
	ring, err := wire.NewHashRing(m)
	if err != nil {
		t.Fatalf("NewHashRing: %v", err)
	}
	for i := 0; i < 1024 && (owned == "" || disowned == ""); i++ {
		name := fmt.Sprintf("h%03d", i)
		if ring.Owner(name) == index {
			if owned == "" {
				owned = name
			}
		} else if disowned == "" {
			disowned = name
		}
	}
	if owned == "" || disowned == "" {
		t.Fatalf("could not find owned+disowned client names under %+v", m)
	}
	return owned, disowned
}

func testFlow(i int) wire.Flow {
	return wire.Flow{Src: int32(i), Dst: int32(i + 1), SrcPort: 7, DstPort: 8, Proto: 17}
}

// TestShardMovedNackAndErrRedirected covers the ownership fence end to
// end: a shard NACKs a disowned client with moved=true, the
// ReliableClient counts it and surfaces ErrRedirected, and the message
// stays pending (nothing is silently dropped).
func TestShardMovedNackAndErrRedirected(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	srv := shardServe(t, m, 0, "")
	defer srv.Close()
	owned, disowned := ownedAndDisowned(t, m, 0)

	rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: disowned, MaxAttempts: 2, Sleep: noSleep})
	if err != nil {
		t.Fatalf("NewReliableClient: %v", err)
	}
	f := testFlow(1)
	if err := rc.SendCF(f.Key()); err != nil {
		t.Fatalf("SendCF: %v", err)
	}
	err = rc.Flush()
	if !errors.Is(err, ErrRedirected) {
		t.Fatalf("Flush error = %v, want ErrRedirected", err)
	}
	if rc.Stats.Redirected != 2 { // one per attempt
		t.Errorf("Stats.Redirected = %d, want 2", rc.Stats.Redirected)
	}
	if rc.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (moved messages must stay buffered)", rc.Pending())
	}
	if srv.Stats().Moved != 2 {
		t.Errorf("server Moved = %d, want 2", srv.Stats().Moved)
	}

	// The owned client is accepted as usual.
	ok, err := NewReliableClient(srv.Addr(), ClientConfig{ID: owned, MaxAttempts: 2, Sleep: noSleep})
	if err != nil {
		t.Fatalf("NewReliableClient: %v", err)
	}
	if err := ok.SendCF(f.Key()); err != nil {
		t.Fatalf("SendCF: %v", err)
	}
	if err := ok.Flush(); err != nil {
		t.Fatalf("owned client Flush: %v", err)
	}
}

// dumpState drives the dump verb over raw TCP, as the fleet aggregator
// does.
func dumpState(t *testing.T, addr string) *wire.Snapshot {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, `{"type":"dump"}`+"\n"); err != nil {
		t.Fatalf("write dump: %v", err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("read dump reply: %v", err)
	}
	var state wire.Snapshot
	if err := json.Unmarshal(line, &state); err != nil {
		t.Fatalf("bad dump reply %q: %v", line, err)
	}
	return &state
}

func TestShardDumpReturnsSourcedMessages(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	srv := shardServe(t, m, 1, "")
	defer srv.Close()
	owned, _ := ownedAndDisowned(t, m, 1)

	rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: owned, MaxAttempts: 2, Sleep: noSleep})
	if err != nil {
		t.Fatalf("NewReliableClient: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := rc.SendCF(testFlow(i).Key()); err != nil {
			t.Fatalf("SendCF: %v", err)
		}
	}
	if err := rc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	state := dumpState(t, srv.Addr())
	if state.Shard != 1 || state.Map != m {
		t.Errorf("dump identifies as shard %d of %+v, want 1 of %+v", state.Shard, state.Map, m)
	}
	if len(state.Messages) != 3 {
		t.Fatalf("dump has %d messages, want 3", len(state.Messages))
	}
	for i, sm := range state.Messages {
		if sm.Client != owned || sm.Seq != int64(i+1) || sm.Type != TypeCF {
			t.Errorf("message %d = %+v, want client %q seq %d cf", i, sm, owned, i+1)
		}
	}
}

// TestStandaloneDumpMergesToDiagnosis: a standalone daemon answers dump
// as shard 0 of a 1-shard map, and merging that dump reproduces its own
// diagnosis — before a crash and after recovery from snapshot + WAL.
// The merge reorders messages canonically, so this also pins that the
// diagnosis does not depend on ingest order.
func TestStandaloneDumpMergesToDiagnosis(t *testing.T) {
	items := linearize(runScenario(t))
	dir := t.TempDir()
	cfg := DefaultServerConfig()
	// One snapshot, then a three-message WAL tail.
	cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: len(items) - 3}

	mergedDiag := func(srv *Server) []byte {
		t.Helper()
		state := dumpState(t, srv.Addr())
		if state.Shard != 0 || state.Map != (wire.ShardMap{Shards: 1}) {
			t.Fatalf("standalone dump identifies as shard %d of %+v, want 0 of a 1-shard map",
				state.Shard, state.Map)
		}
		bundle, _ := wire.MergeShardStates([]*wire.Snapshot{state})
		b, err := json.Marshal(wire.FromDiagnosis(bundle.Analyze()))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	srv, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: "h1", Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	sendRange(t, rc, items, 0, len(items))
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	want := diagBytes(t, srv)
	if got := mergedDiag(srv); !bytes.Equal(got, want) {
		t.Fatalf("merged dump diagnosis differs from Diagnose():\n%s\nvs\n%s", got, want)
	}
	srv.Abort()

	s2, err := ServeWith("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); !rec.SnapshotLoaded || rec.WALEntries == 0 {
		t.Fatalf("recovery %+v, want a snapshot plus a WAL tail", rec)
	}
	if got := diagBytes(t, s2); !bytes.Equal(got, want) {
		t.Fatalf("recovered Diagnose() differs:\n%s\nvs\n%s", got, want)
	}
	if got := mergedDiag(s2); !bytes.Equal(got, want) {
		t.Fatalf("recovered merged dump diagnosis differs:\n%s\nvs\n%s", got, want)
	}
}

// TestShardRecoveryDropsReassignedClients is the shard-map-change
// recovery contract: a restarted shard whose map now assigns some
// recovered clients elsewhere must drop their records — from the
// snapshot AND the WAL tail — deterministically and with a counter,
// never replay them into the wrong shard.
func TestShardRecoveryDropsReassignedClients(t *testing.T) {
	dir := t.TempDir()
	wide := wire.ShardMap{Shards: 1} // owns every client
	narrow := wire.ShardMap{Shards: 2}
	keep, lose := ownedAndDisowned(t, narrow, 0)

	srv := shardServe(t, wide, 0, dir)
	// 4 messages per client with SnapshotEvery=3: some land in the
	// snapshot, the rest stay in the WAL tail, so both recovery filters
	// are exercised.
	perClient := 4
	for _, id := range []string{keep, lose} {
		rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: id, MaxAttempts: 2, Sleep: noSleep})
		if err != nil {
			t.Fatalf("NewReliableClient: %v", err)
		}
		for i := 0; i < perClient; i++ {
			if err := rc.SendCF(testFlow(i).Key()); err != nil {
				t.Fatalf("SendCF: %v", err)
			}
		}
		if err := rc.Flush(); err != nil {
			t.Fatalf("Flush(%s): %v", id, err)
		}
	}
	srv.Abort() // SIGKILL stand-in: no drain snapshot, WAL abandoned

	recoverOnce := func() (RecoverStats, *wire.Snapshot) {
		cfg := DefaultServerConfig()
		cfg.Shard = &ShardConfig{Map: narrow, Index: 0}
		cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: 0}
		s2, err := ServeWith("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("recover ServeWith: %v", err)
		}
		stats := s2.Recovery()
		state := s2.State()
		if err := s2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return stats, state
	}

	stats, state := recoverOnce()
	if stats.Reassigned != perClient {
		t.Errorf("Reassigned = %d, want %d (all of %s's messages)", stats.Reassigned, perClient, lose)
	}
	if len(state.Messages) != perClient {
		t.Fatalf("recovered %d messages, want %d (only %s's)", len(state.Messages), perClient, keep)
	}
	for _, sm := range state.Messages {
		if sm.Client != keep {
			t.Errorf("recovered message for %q survived reassignment", sm.Client)
		}
	}

	// Recovery of the same directory is deterministic: run it again
	// (read-only with SnapshotEvery=0 and no new ingest) and compare.
	stats2, state2 := recoverOnce()
	if stats2.Reassigned != stats.Reassigned {
		t.Errorf("second recovery Reassigned = %d, want %d", stats2.Reassigned, stats.Reassigned)
	}
	if !reflect.DeepEqual(state2, state) {
		t.Errorf("second recovery state differs:\n%+v\n%+v", state2, state)
	}
}

// TestShardSnapshotRoundTrip pins shard-mode durability: snapshots carry
// Messages (not derived state) and a clean restart rebuilds the same
// sourced stream.
func TestShardSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := wire.ShardMap{Shards: 2}
	owned, _ := ownedAndDisowned(t, m, 0)

	srv := shardServe(t, m, 0, dir)
	rc, err := NewReliableClient(srv.Addr(), ClientConfig{ID: owned, MaxAttempts: 2, Sleep: noSleep})
	if err != nil {
		t.Fatalf("NewReliableClient: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := rc.SendCF(testFlow(i).Key()); err != nil {
			t.Fatalf("SendCF: %v", err)
		}
	}
	if err := rc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := srv.State()
	if err := srv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	s2 := shardServe(t, m, 0, dir)
	defer s2.Close()
	if got := s2.State(); !reflect.DeepEqual(got, want) {
		t.Errorf("restarted shard state differs:\n got %+v\nwant %+v", got, want)
	}
	if rec := s2.Recovery(); rec.SnapshotCFs != 5 {
		t.Errorf("RecoverStats.SnapshotCFs = %d, want 5", rec.SnapshotCFs)
	}
}
