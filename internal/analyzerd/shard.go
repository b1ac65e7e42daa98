package analyzerd

import (
	"encoding/json"
	"fmt"
	"net"

	"vedrfolnir/internal/wire"
)

// ShardConfig places a Server inside a diagnosis fleet: Map is the
// fleet-wide consistent-hash shard map (identical on the router and
// every shard) and Index this daemon's slot in it. See
// ServerConfig.Shard for the behavioral contract.
type ShardConfig struct {
	Map   wire.ShardMap
	Index int
}

func (c *ShardConfig) ring() (*wire.HashRing, error) {
	ring, err := wire.NewHashRing(c.Map)
	if err != nil {
		return nil, fmt.Errorf("analyzerd: shard config: %w", err)
	}
	if c.Index < 0 || c.Index >= c.Map.Shards {
		return nil, fmt.Errorf("analyzerd: shard index %d outside map of %d shards", c.Index, c.Map.Shards)
	}
	return ring, nil
}

// disownedBy reports whether client is a named client the shard map
// assigns to a different shard, and which one. Always false for a
// standalone daemon (its 1-shard map owns everything) and for unnamed
// (peer-keyed) submissions. The ring is read under shardMu: a live
// remap may swap it at any time.
func (s *Server) disownedBy(client string) (owner int, moved bool) {
	if client == "" {
		return 0, false
	}
	s.shardMu.RLock()
	ring := s.ring
	s.shardMu.RUnlock()
	owner = ring.Owner(client)
	return owner, owner != s.index
}

// curShardMap returns the map the shard is currently running under.
func (s *Server) curShardMap() wire.ShardMap {
	s.shardMu.RLock()
	defer s.shardMu.RUnlock()
	return s.shardMap
}

// replyMoved NACKs a submission for a client another shard owns. The
// reply is retryable and announces the owner index plus the shard map
// it was derived from, so a ReliableClient (or the router on its
// behalf) can rehash, redial the owning shard, and resubmit — the
// message is not lost.
func (s *Server) replyMoved(conn net.Conn, seq int64, client string, owner int) {
	reason := fmt.Sprintf("client %q belongs to shard %d", client, owner)
	m, err := json.Marshal(s.curShardMap())
	if err != nil {
		m = []byte("{}") // a flat int struct cannot fail to marshal
	}
	if seq > 0 {
		s.replyf(conn, `{"nak":%d,"moved":true,"owner":%d,"map":%s,"error":%q,"retry":true}`+"\n",
			seq, owner, m, reason)
	} else {
		s.replyf(conn, `{"moved":true,"owner":%d,"map":%s,"error":%q,"retry":true}`+"\n", owner, m, reason)
	}
}

// replyDump answers the "dump" verb with the daemon's state as one
// wire.Snapshot JSON line.
func (s *Server) replyDump(conn net.Conn) {
	b, err := json.Marshal(s.State())
	if err != nil {
		s.replyf(conn, `{"error":%q}`+"\n", err.Error())
		return
	}
	b = append(b, '\n')
	s.replyf(conn, "%s", b)
}

// State returns the daemon's accepted messages (ingest order) and
// per-client ack highwaters, with its position in the fleet under the
// *current* (possibly remapped) shard map. A standalone daemon reports
// shard 0 of a 1-shard map.
func (s *Server) State() *wire.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &wire.Snapshot{
		Format:   wire.SnapshotFormat,
		Map:      s.curShardMap(),
		Shard:    s.index,
		Messages: append([]wire.SourcedMessage(nil), s.sourced...),
		Acked:    s.ackedLocked(),
	}
}

// sourcedFromMessage strips a protocol message to its durable identity
// + payload form.
func sourcedFromMessage(msg *Message) wire.SourcedMessage {
	return wire.SourcedMessage{
		Client: msg.Client,
		Seq:    msg.Seq,
		Type:   msg.Type,
		Step:   msg.Step,
		Report: msg.Report,
		CF:     msg.CF,
	}
}

// Abort is the in-process stand-in for SIGKILL, for crash tests and the
// in-process fleet harness: connections die, the listener closes,
// whatever the fsync policy already made durable stays on disk, and no
// drain snapshot or final sync is written. The WAL file handle is
// abandoned (closed without flushing), exactly what a killed process
// leaves behind.
func (s *Server) Abort() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.closed = true
	s.draining = true
	for conn := range s.conns {
		_ = conn.Close() // severing peers, as a kill would
	}
	s.mu.Unlock()
	_ = s.ln.Close() // severing the listener, as a kill would
	s.wg.Wait()
	close(s.queue)
	<-s.applierDone
	if s.wal != nil {
		s.wal.abandon()
	}
}
