package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/wire"
)

// RouterConfig tunes the fleet's ingest tier.
type RouterConfig struct {
	// Map is the fleet-wide consistent-hash shard map; it must match the
	// ShardConfig of every shard daemon. Required. A live Resize replaces
	// it (with a bumped Epoch) without restarting the router.
	Map wire.ShardMap
	// Addrs are the shard listen addresses by index; entries may start
	// empty (a not-yet-announced shard routes as unavailable) and are
	// updated via SetShardAddr as supervisors learn them. len(Addrs) must
	// equal Map.Shards when non-nil.
	Addrs []string
	// DialTimeout bounds one shard dial (default 2s); ReplyTimeout bounds
	// one forwarded round trip (default 10s).
	DialTimeout  time.Duration
	ReplyTimeout time.Duration
	// RebalanceTimeout bounds each retried shard exchange (dump, adopt,
	// remap) during a live Resize — long enough to ride out a SIGKILLed
	// shard's supervised restart (default 30s).
	RebalanceTimeout time.Duration
	// MaxLineBytes caps one client protocol line (default 16 MiB).
	MaxLineBytes int
	// Tenants, when set, applies per-tenant token-bucket quotas to ingest
	// (and groups the drain accounting by tenant).
	Tenants *TenantConfig
	// Rebalance supplies the process-level hooks a live Resize needs
	// (start/prepare/stop shard daemons). Nil disables Resize.
	Rebalance *RebalanceHooks
	// HandoffDir, when set, persists every handoff unit a Resize builds
	// as a deterministic JSON file (wire.Snapshot.HandoffFilename) before
	// it is delivered — the auditable record of what moved where.
	HandoffDir string
	// OnAcked, when set, observes the cumulative count of acknowledged
	// submissions after each ack is folded in. Called without router
	// locks held; keep it fast or hand off to a goroutine.
	OnAcked func(total int64)
	// Now overrides the wall clock for the tenant buckets and rebalance
	// deadlines (tests); nil uses the system clock.
	Now func() time.Time
	// Log receives routing warnings; nil discards. Metrics, when set,
	// publishes the router counters (including a per-shard CounterSet of
	// forwarded messages and lazy per-tenant quota gauges).
	Log     *slog.Logger
	Metrics *obs.Registry
}

// RouterStats counts the router's work. Cheap snapshot via Stats().
type RouterStats struct {
	// Forwarded counts messages relayed to a shard (including retried
	// duplicates of the same seq).
	Forwarded int64
	// Rejected counts lines the router refused outright: malformed,
	// unnamed, unsequenced, or misdirected verbs.
	Rejected int64
	// ShardDown counts retryable NACKs issued because the owning shard
	// could not be reached; the reliable client backs off and resubmits,
	// so these are delays, not losses.
	ShardDown int64
	// TenantLimited counts retryable NACKs issued by the per-tenant
	// quota gate.
	TenantLimited int64
	// Quiesced counts retryable NACKs issued to moved clients while a
	// rebalance had them fenced.
	Quiesced int64
	// Rerouted counts messages re-forwarded once after a shard answered
	// with a moved NACK (the shard's map was ahead of the router's).
	Rerouted int64
	// Resizes counts completed live rebalances.
	Resizes int64
}

// ShardTally is the router's account of what one shard acknowledged, by
// payload type, with resubmitted duplicates counted once. When a shard is
// unreachable at drain time, its tally is exactly what the merged
// diagnosis is missing — the degraded-coverage input. After a rebalance
// the tallies follow the moved clients: acked work is attributed to the
// client's current owner, because that is the shard whose dump now
// carries it.
type ShardTally struct {
	Records int
	Reports int
	CFs     int
}

// Total sums the tally.
func (t ShardTally) Total() int { return t.Records + t.Reports + t.CFs }

// shardLink is one serialized connection to a shard: a single in-flight
// request per shard keeps the newline-framed reply stream unambiguous
// when many client connections multiplex onto it.
type shardLink struct {
	mu   sync.Mutex
	addr string
	conn net.Conn
	br   *bufio.Reader
}

// seqType is one forwarded-but-unacked message identity.
type seqType struct {
	seq int64
	typ string
}

// clientTally deduplicates ack accounting per client: pending holds
// forwarded seqs (ascending) awaiting their cumulative ack, counted is
// the highwater already folded into tally.
type clientTally struct {
	counted int64
	pending []seqType
	tally   ShardTally
}

// Router is the fleet's thin ingest tier: it speaks the same seq/ack wire
// protocol as a shard daemon, consistent-hashes each named client onto
// its owning shard, relays the shard's replies verbatim, and answers with
// a retryable NACK when the shard is down so the reliable client's
// resubmission machinery carries submissions across shard failover. A
// live Resize swaps the shard map underneath it: moved clients are
// fenced with retryable NACKs while their state is handed off, then
// re-admitted under the new map.
type Router struct {
	cfg RouterConfig
	ln  net.Listener

	// rmu guards the routable topology: the installed map/ring, the
	// shard links, and the rebalance fence. Lock order: rmu before tmu
	// or qmu; never the reverse.
	rmu       sync.RWMutex
	cur       wire.ShardMap
	ring      *wire.HashRing
	links     []*shardLink
	quiesce   func(client string) bool // non-nil mid-rebalance
	forwarded []*obs.Counter           // per-shard, when Metrics is set

	// inflight counts routed submissions between passing the fence and
	// completing their shard round trip; Resize waits for it to drain
	// after installing the fence, so a donor dump cannot miss a message
	// that was already past the gate.
	inflight atomic.Int64

	resizeMu sync.Mutex // serializes live resizes

	mu      sync.Mutex
	conns   map[net.Conn]bool
	stopped bool
	wg      sync.WaitGroup

	tmu     sync.Mutex
	tallies map[string]*clientTally
	stats   RouterStats
	acked   int64 // cumulative acked submissions (OnAcked feed)

	qmu     sync.Mutex
	tenants map[string]*tenantQuota
}

// StartRouter binds the router and begins accepting clients.
func StartRouter(addr string, cfg RouterConfig) (*Router, error) {
	ring, err := wire.NewHashRing(cfg.Map)
	if err != nil {
		return nil, fmt.Errorf("fleet: router: %w", err)
	}
	if cfg.Addrs != nil && len(cfg.Addrs) != cfg.Map.Shards {
		return nil, fmt.Errorf("fleet: router has %d shard addrs for a map of %d", len(cfg.Addrs), cfg.Map.Shards)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.ReplyTimeout <= 0 {
		cfg.ReplyTimeout = 10 * time.Second
	}
	if cfg.RebalanceTimeout <= 0 {
		cfg.RebalanceTimeout = 30 * time.Second
	}
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = 16 << 20
	}
	if cfg.Tenants != nil {
		if cfg.Tenants.Rate <= 0 {
			return nil, fmt.Errorf("fleet: tenant quota rate %v, want > 0", cfg.Tenants.Rate)
		}
		tc := *cfg.Tenants // defaults apply to a private copy
		tc.defaults()
		cfg.Tenants = &tc
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: router: %w", err)
	}
	r := &Router{
		cfg:     cfg,
		cur:     cfg.Map,
		ring:    ring,
		ln:      ln,
		links:   make([]*shardLink, cfg.Map.Shards),
		conns:   map[net.Conn]bool{},
		tallies: map[string]*clientTally{},
		tenants: map[string]*tenantQuota{},
	}
	for i := range r.links {
		l := &shardLink{}
		if cfg.Addrs != nil {
			l.addr = cfg.Addrs[i]
		}
		r.links[i] = l
	}
	r.publishStats()
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// now reads the router's clock (injectable for tests).
func (r *Router) now() time.Time {
	if r.cfg.Now != nil {
		return r.cfg.Now()
	}
	//lint:ignore nosystime pacing real tenant buckets and real TCP rebalance deadlines
	return time.Now()
}

func (r *Router) publishStats() {
	reg := r.cfg.Metrics
	if reg == nil {
		return
	}
	reg.GaugeFunc("vedr_router_forwarded_total", "messages relayed to shards",
		func() int64 { return r.Stats().Forwarded })
	reg.GaugeFunc("vedr_router_rejected_total", "lines the router refused (malformed/unnamed/unsequenced)",
		func() int64 { return r.Stats().Rejected })
	reg.GaugeFunc("vedr_router_shard_down_total", "retryable NACKs for unreachable shards",
		func() int64 { return r.Stats().ShardDown })
	reg.GaugeFunc("vedr_router_tenant_limited_total", "retryable NACKs from the per-tenant quota gate",
		func() int64 { return r.Stats().TenantLimited })
	reg.GaugeFunc("vedr_router_quiesced_total", "retryable NACKs to clients fenced by a rebalance",
		func() int64 { return r.Stats().Quiesced })
	reg.GaugeFunc("vedr_router_resizes_total", "completed live rebalances",
		func() int64 { return r.Stats().Resizes })
	r.forwarded = reg.CounterSet("vedr_router_shard_forwarded", "messages relayed to this shard", r.cfg.Map.Shards)
}

// Addr returns the router's listen address.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// Shards returns the current shard-map size.
func (r *Router) Shards() int {
	r.rmu.RLock()
	defer r.rmu.RUnlock()
	return r.cur.Shards
}

// Map returns the currently installed shard map.
func (r *Router) Map() wire.ShardMap {
	r.rmu.RLock()
	defer r.rmu.RUnlock()
	return r.cur
}

// Owner returns the shard index owning a client name under the current
// map.
func (r *Router) Owner(client string) int {
	r.rmu.RLock()
	defer r.rmu.RUnlock()
	return r.ring.Owner(client)
}

// link returns shard i's serialized connection, or nil when i is outside
// the current topology.
func (r *Router) link(i int) *shardLink {
	r.rmu.RLock()
	defer r.rmu.RUnlock()
	if i < 0 || i >= len(r.links) {
		return nil
	}
	return r.links[i]
}

// SetShardAddr re-points shard i (a supervisor learned a restarted
// shard's address). A changed address drops the cached connection.
func (r *Router) SetShardAddr(i int, addr string) {
	l := r.link(i)
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.addr == addr {
		return
	}
	l.addr = addr
	if l.conn != nil {
		_ = l.conn.Close() // stale peer; the next round trip redials
		l.conn, l.br = nil, nil
	}
}

// Stats snapshots the router counters.
func (r *Router) Stats() RouterStats {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	return r.stats
}

// Tallies snapshots the per-shard acked accounting under the current
// map: each client's acknowledged payloads are attributed to the shard
// that owns the client now, which after a rebalance is the shard whose
// dump carries them.
func (r *Router) Tallies() []ShardTally {
	r.rmu.RLock()
	ring, n := r.ring, r.cur.Shards
	r.rmu.RUnlock()
	out := make([]ShardTally, n)
	r.tmu.Lock()
	defer r.tmu.Unlock()
	for client, ct := range r.tallies {
		s := ring.Owner(client)
		out[s].Records += ct.tally.Records
		out[s].Reports += ct.tally.Reports
		out[s].CFs += ct.tally.CFs
	}
	return out
}

// Stop closes the listener and every client connection, and waits for the
// handlers to finish (an admin-driven resize runs on a handler, so Stop
// also waits out any rebalance in flight). Shard links stay usable
// (DumpShard still works); Close tears those down too.
func (r *Router) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.stopped = true
	for conn := range r.conns {
		_ = conn.Close() // unblocks the handler reads
	}
	r.mu.Unlock()
	_ = r.ln.Close() // unblocks Accept
	r.wg.Wait()
}

// Close stops the router and drops the shard connections.
func (r *Router) Close() {
	r.Stop()
	r.rmu.RLock()
	links := append([]*shardLink(nil), r.links...)
	r.rmu.RUnlock()
	for _, l := range links {
		l.mu.Lock()
		if l.conn != nil {
			_ = l.conn.Close() // shutting down; the peer sees EOF either way
			l.conn, l.br = nil, nil
		}
		l.mu.Unlock()
	}
}

func (r *Router) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			_ = conn.Close() // raced shutdown; nothing to serve
			return
		}
		r.conns[conn] = true
		r.wg.Add(1)
		r.mu.Unlock()
		go r.handle(conn)
	}
}

func (r *Router) forget(conn net.Conn) {
	r.mu.Lock()
	delete(r.conns, conn)
	r.mu.Unlock()
	_ = conn.Close() // either side may already have closed it
}

func (r *Router) count(f func(*RouterStats)) {
	r.tmu.Lock()
	f(&r.stats)
	r.tmu.Unlock()
}

func (r *Router) replyf(conn net.Conn, format string, args ...any) {
	if _, err := fmt.Fprintf(conn, format, args...); err != nil {
		r.cfg.Log.Debug("router reply failed", "err", err)
	}
}

// handle relays one client connection line by line.
func (r *Router) handle(conn net.Conn) {
	defer r.wg.Done()
	defer r.forget(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), r.cfg.MaxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		msg, err := analyzerd.ParseMessage(line)
		if err != nil {
			r.count(func(s *RouterStats) { s.Rejected++ })
			r.replyf(conn, `{"error":%q}`+"\n", err.Error())
			continue
		}
		switch msg.Type {
		case analyzerd.TypeDump:
			// The drain gathers per-shard dumps itself; a merged dump
			// through the router would hide which shard is unreachable.
			r.count(func(s *RouterStats) { s.Rejected++ })
			r.replyf(conn, `{"error":"dump must target a shard, not the router"}`+"\n")
			continue
		case analyzerd.TypeRemap, analyzerd.TypeAdopt:
			// The router originates these during its own Resize; accepting
			// them from a client would let anyone rewrite the topology.
			r.count(func(s *RouterStats) { s.Rejected++ })
			r.replyf(conn, `{"error":"rebalance verbs are router-internal"}`+"\n")
			continue
		case analyzerd.TypeResize:
			r.handleResize(conn, msg)
			continue
		}
		if msg.Client == "" || msg.Seq == 0 {
			// A shard sends no reply for accepted unsequenced messages, so
			// the router could never relay an outcome; and an unnamed
			// client cannot be hashed. Reject loudly instead of guessing.
			r.count(func(s *RouterStats) { s.Rejected++ })
			r.replyf(conn, `{"error":"fleet ingest requires a named client and a sequence number"}`+"\n")
			continue
		}
		if tenant, ok := r.admitTenant(msg.Client); !ok {
			r.count(func(s *RouterStats) { s.TenantLimited++ })
			r.replyf(conn, `{"nak":%d,"error":%q,"retry":true}`+"\n",
				msg.Seq, fmt.Sprintf("tenant %q over quota", tenant))
			continue
		}
		// Pass the rebalance fence and pin the route under one rmu hold:
		// the inflight increment must be visible before the read lock is
		// released, so a Resize that installs the fence next observes
		// this message and waits for its round trip.
		r.rmu.RLock()
		if q := r.quiesce; q != nil && q(msg.Client) {
			r.rmu.RUnlock()
			r.count(func(s *RouterStats) { s.Quiesced++ })
			r.replyf(conn, `{"nak":%d,"error":"rebalance in progress","retry":true}`+"\n", msg.Seq)
			continue
		}
		shard := r.ring.Owner(msg.Client)
		r.inflight.Add(1)
		r.rmu.RUnlock()
		r.routeOne(conn, msg, line, shard)
		r.inflight.Add(-1)
	}
}

// routeOne forwards one admitted submission and relays the outcome.
func (r *Router) routeOne(conn net.Conn, msg *analyzerd.Message, line []byte, shard int) {
	r.notePending(msg.Client, msg.Seq, msg.Type)
	rep, err := r.roundTrip(shard, line)
	if err != nil {
		r.count(func(s *RouterStats) { s.ShardDown++ })
		r.cfg.Log.Warn("shard unreachable", "shard", shard, "client", msg.Client, "err", err)
		r.replyf(conn, `{"nak":%d,"error":%q,"retry":true}`+"\n",
			msg.Seq, fmt.Sprintf("shard %d unavailable", shard))
		return
	}
	// A shard whose map ran ahead of the router's answers moved; follow
	// the announced owner once rather than bouncing the NACK to the
	// client (stragglers mid-rebalance hit this window).
	if owner, moved := movedOwner(rep); moved && owner != shard {
		if l := r.link(owner); l != nil {
			r.count(func(s *RouterStats) { s.Rerouted++ })
			if rep2, err2 := r.roundTrip(owner, line); err2 == nil {
				rep, shard = rep2, owner
			}
		}
	}
	r.count(func(s *RouterStats) { s.Forwarded++ })
	r.rmu.RLock()
	if r.forwarded != nil && shard < len(r.forwarded) {
		r.forwarded[shard].Inc()
	}
	r.rmu.RUnlock()
	r.noteReply(msg.Client, rep)
	if _, err := conn.Write(rep); err != nil {
		r.cfg.Log.Debug("router relay failed", "err", err)
	}
}

// movedOwner parses a shard reply for a moved NACK's announced owner.
func movedOwner(rep []byte) (int, bool) {
	var parsed struct {
		Moved bool `json:"moved"`
		Owner int  `json:"owner"`
	}
	if err := json.Unmarshal(rep, &parsed); err != nil || !parsed.Moved {
		return 0, false
	}
	return parsed.Owner, true
}

// roundTrip forwards one line to a shard and reads its single-line reply.
// A dead cached connection (the shard restarted since the last trip) gets
// one redial: the write may have landed in a void, but resubmitting the
// same seq is safe — the shard's dedup highwater suppresses duplicates.
func (r *Router) roundTrip(shard int, line []byte) ([]byte, error) {
	l := r.link(shard)
	if l == nil {
		return nil, fmt.Errorf("no shard %d in the current map", shard)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if l.conn == nil {
			if l.addr == "" {
				return nil, fmt.Errorf("shard %d has not announced an address", shard)
			}
			conn, err := net.DialTimeout("tcp", l.addr, r.cfg.DialTimeout)
			if err != nil {
				return nil, err
			}
			l.conn = conn
			l.br = bufio.NewReader(conn)
		}
		//lint:ignore nosystime bounding a real TCP round trip to a shard daemon
		deadline := time.Now().Add(r.cfg.ReplyTimeout)
		if err := l.conn.SetDeadline(deadline); err != nil {
			lastErr = err
			l.drop()
			continue
		}
		if _, err := l.conn.Write(append(append([]byte(nil), line...), '\n')); err != nil {
			lastErr = err
			l.drop()
			continue
		}
		rep, err := l.br.ReadBytes('\n')
		if err != nil {
			lastErr = err
			l.drop()
			continue
		}
		return rep, nil
	}
	return nil, lastErr
}

// drop discards a broken shard connection (caller holds l.mu).
func (l *shardLink) drop() {
	if l.conn != nil {
		_ = l.conn.Close() // already broken; the redial is what matters
		l.conn, l.br = nil, nil
	}
}

// notePending records a forwarded message identity awaiting its ack.
// Already-counted seqs (a resubmission of something acked before a
// failover) are skipped so the tallies stay exactly-once.
func (r *Router) notePending(client string, seq int64, typ string) {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	ct := r.tallies[client]
	if ct == nil {
		ct = &clientTally{}
		r.tallies[client] = ct
	}
	if seq <= ct.counted {
		return
	}
	i := sort.Search(len(ct.pending), func(i int) bool { return ct.pending[i].seq >= seq })
	if i < len(ct.pending) && ct.pending[i].seq == seq {
		return
	}
	ct.pending = append(ct.pending, seqType{})
	copy(ct.pending[i+1:], ct.pending[i:])
	ct.pending[i] = seqType{seq: seq, typ: typ}
}

// noteReply folds a shard's reply into the client's tally: a cumulative
// ack settles every pending seq at or below it.
func (r *Router) noteReply(client string, rep []byte) {
	var parsed struct {
		Ack int64 `json:"ack"`
	}
	if err := json.Unmarshal(rep, &parsed); err != nil || parsed.Ack <= 0 {
		return
	}
	r.tmu.Lock()
	ct := r.tallies[client]
	if ct == nil {
		r.tmu.Unlock()
		return
	}
	n := 0
	for _, p := range ct.pending {
		if p.seq > parsed.Ack {
			break
		}
		switch p.typ {
		case analyzerd.TypeStep:
			ct.tally.Records++
		case analyzerd.TypeReport:
			ct.tally.Reports++
		case analyzerd.TypeCF:
			ct.tally.CFs++
		}
		n++
	}
	ct.pending = ct.pending[n:]
	if parsed.Ack > ct.counted {
		ct.counted = parsed.Ack
	}
	r.acked += int64(n)
	total := r.acked
	r.tmu.Unlock()
	if n > 0 && r.cfg.OnAcked != nil {
		r.cfg.OnAcked(total)
	}
}

// DumpShard asks one shard for its full accepted-message state over the
// serialized shard link. The state's shard index and map are checked
// against the router's currently installed map — a mismatched dump means
// the fleet is misassembled, and merging it would corrupt the diagnosis.
func (r *Router) DumpShard(i int) (*wire.Snapshot, error) {
	if r.link(i) == nil {
		return nil, fmt.Errorf("fleet: no shard %d", i)
	}
	rep, err := r.roundTrip(i, []byte(`{"type":"dump"}`))
	if err != nil {
		return nil, err
	}
	state, err := decodeDump(i, rep)
	if err != nil {
		return nil, err
	}
	if cur := r.Map(); state.Shard != i || state.Map != cur {
		return nil, fmt.Errorf("fleet: dump from shard %d/%+v where shard %d/%+v was expected",
			state.Shard, state.Map, i, cur)
	}
	return state, nil
}

// decodeDump parses one shard's dump reply, surfacing a shard-side error
// line as an error.
func decodeDump(i int, rep []byte) (*wire.Snapshot, error) {
	var state wire.Snapshot
	if err := json.Unmarshal(rep, &state); err != nil {
		return nil, fmt.Errorf("fleet: shard %d dump: %w", i, err)
	}
	if state.Format == 0 {
		var failure struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(rep, &failure) == nil && failure.Error != "" {
			return nil, fmt.Errorf("fleet: shard %d dump: %s", i, failure.Error)
		}
		return nil, fmt.Errorf("fleet: shard %d dump: unrecognized reply", i)
	}
	return &state, nil
}
