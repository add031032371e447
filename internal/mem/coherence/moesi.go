// Package coherence implements a snooping MOESI cache-coherence protocol,
// the "basic MOESI" gem5 classic-cache protocol that gem5-Aladdin attaches
// accelerator caches to (Sec III-D). The protocol engine is independent of
// timing: it answers, for each local action, what state the line moves to,
// where the data comes from (another cache or memory), and what side
// effects occur (invalidations, writebacks). The cache model layers timing
// and energy on top of these answers.
package coherence

import "fmt"

// State is a MOESI line state.
type State uint8

// MOESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

var stateNames = [...]string{"I", "S", "E", "O", "M"}

// String returns the one-letter state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Valid reports whether the state holds data.
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether eviction requires a writeback.
func (s State) Dirty() bool { return s == Modified || s == Owned }

// CanSupply reports whether a peer in this state sources data on a snoop
// (M, O, and E supply cache-to-cache; S defers to memory).
func (s State) CanSupply() bool { return s == Modified || s == Owned || s == Exclusive }

// Source says where miss data came from.
type Source uint8

// Data sources for a fill.
const (
	SrcNone   Source = iota // no data movement (hit or upgrade)
	SrcMemory               // filled from main memory
	SrcCache                // cache-to-cache transfer from a peer
)

// Result describes the outcome of one local action.
type Result struct {
	NewState      State
	Src           Source
	Writeback     bool // a dirty line was pushed to memory
	Invalidations int  // peers whose copy was invalidated
	WasHit        bool // the local cache already held usable data
}

// Op identifies which protocol action an Observer is being notified of.
type Op uint8

// Protocol actions visible to an Observer.
const (
	OpRead Op = iota
	OpWrite
	OpEvict
)

var opNames = [...]string{"read", "write", "evict"}

// String names the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// MaxPeers bounds how many caches one controller mediates: each line's
// per-peer states pack into one uint64 at 4 bits per peer.
const MaxPeers = 16

// dirEntry is one slot of the directory: a line address and every peer's
// state for it, packed 4 bits per peer. states == 0 means all peers
// Invalid; such slots stay claimed (no tombstones) and are dropped at the
// next rehash.
type dirEntry struct {
	line   uint64
	states uint64
	used   bool
}

// Controller mediates a set of peer caches snooping one bus. Peers are
// identified by the index returned from AddPeer. Line addresses are opaque
// keys (callers pass line-aligned physical addresses).
//
// The directory is a single open-addressed hash table over lines, with all
// peers' states for a line packed into one word. Every snoop — which under
// MOESI consults every peer — touches exactly one slot instead of one map
// lookup per peer, and state transitions are nibble updates on that slot.
type Controller struct {
	numPeers int
	dir      []dirEntry // power-of-two capacity, linear probing
	occupied int        // claimed slots (including all-Invalid ones)

	// Observer, when non-nil, is called after every completed protocol
	// action with the acting peer, the operation, the line, and the result.
	// The runtime sanitizer (internal/sanitize) hangs off this hook; it is
	// nil in normal runs so the cost is one branch per action.
	Observer func(peer int, op Op, line uint64, res Result)
}

const dirInitCap = 1024 // slots; must be a power of two

// NewController returns a controller with no peers.
func NewController() *Controller {
	return &Controller{dir: make([]dirEntry, dirInitCap)}
}

// AddPeer registers a cache and returns its peer id.
func (c *Controller) AddPeer() int {
	if c.numPeers == MaxPeers {
		panic("coherence: peer count exceeds MaxPeers")
	}
	c.numPeers++
	return c.numPeers - 1
}

// Reset clears every line state and deregisters all peers, keeping the
// directory's capacity. Sweep runners recycle one controller across design
// points with it.
func (c *Controller) Reset() {
	for i := range c.dir {
		c.dir[i] = dirEntry{}
	}
	c.numPeers, c.occupied = 0, 0
	c.Observer = nil
}

// slotOf probes for line's slot, returning nil when absent.
func (c *Controller) slotOf(line uint64) *dirEntry {
	mask := uint64(len(c.dir) - 1)
	for i := (line * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		e := &c.dir[i]
		if !e.used {
			return nil
		}
		if e.line == line {
			return e
		}
	}
}

// claim returns line's slot, inserting (and growing) as needed.
func (c *Controller) claim(line uint64) *dirEntry {
	if c.occupied*4 >= len(c.dir)*3 {
		c.rehash(len(c.dir) * 2)
	}
	mask := uint64(len(c.dir) - 1)
	for i := (line * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		e := &c.dir[i]
		if e.used && e.line == line {
			return e
		}
		if !e.used {
			e.used, e.line = true, line
			c.occupied++
			return e
		}
	}
}

// rehash rebuilds the table at the given capacity, dropping all-Invalid
// slots (the table's substitute for per-delete tombstone bookkeeping).
func (c *Controller) rehash(capacity int) {
	old := c.dir
	c.dir = make([]dirEntry, capacity)
	c.occupied = 0
	for i := range old {
		if old[i].used && old[i].states != 0 {
			*c.claim(old[i].line) = old[i]
		}
	}
}

// stateBits extracts peer p's nibble from a packed word.
func stateBits(states uint64, p int) State { return State(states >> (4 * p) & 0xF) }

// StateOf reports peer p's state for the line.
func (c *Controller) StateOf(p int, line uint64) State {
	if p < 0 || p >= c.numPeers {
		panic("coherence: peer out of range")
	}
	if e := c.slotOf(line); e != nil {
		return stateBits(e.states, p)
	}
	return Invalid
}

// Copies reports every peer's state for the line, indexed by peer id.
func (c *Controller) Copies(line uint64) []State {
	out := make([]State, c.numPeers)
	if e := c.slotOf(line); e != nil {
		for p := range out {
			out[p] = stateBits(e.states, p)
		}
	}
	return out
}

// ForceState overwrites peer p's state for the line without running the
// protocol. It exists so sanitizer tests can corrupt the directory and
// verify the violation is caught; the model never calls it.
func (c *Controller) ForceState(p int, line uint64, s State) {
	c.setState(p, line, s)
}

// notify reports a completed action to the Observer, if any.
func (c *Controller) notify(p int, op Op, line uint64, res Result) {
	if c.Observer != nil {
		c.Observer(p, op, line, res)
	}
}

// setState updates a peer's nibble in the line's slot.
func (c *Controller) setState(p int, line uint64, s State) {
	if s == Invalid {
		// Absent lines are Invalid already; never claim a slot for one.
		if e := c.slotOf(line); e != nil {
			e.states &^= 0xF << (4 * p)
		}
		return
	}
	e := c.claim(line)
	e.states = e.states&^(0xF<<(4*p)) | uint64(s)<<(4*p)
}

// setStateIn updates peer p's nibble on an already-resolved slot.
func setStateIn(e *dirEntry, p int, s State) {
	e.states = e.states&^(0xF<<(4*p)) | uint64(s)<<(4*p)
}

// Read performs a local load by peer p.
func (c *Controller) Read(p int, line uint64) Result {
	e := c.slotOf(line)
	var states uint64
	if e != nil {
		states = e.states
	}
	if s := stateBits(states, p); s.Valid() {
		res := Result{NewState: s, Src: SrcNone, WasHit: true}
		c.notify(p, OpRead, line, res)
		return res
	}
	// Miss: GetS on the bus. The snoop over every peer reads the packed
	// word captured above; transitions write back into the slot.
	res := Result{Src: SrcMemory, NewState: Exclusive}
	sharers := 0
	for q := 0; q < c.numPeers; q++ {
		if q == p {
			continue
		}
		s := stateBits(states, q)
		if !s.Valid() {
			continue
		}
		sharers++
		switch s {
		case Modified:
			// Owner keeps the dirty data, supplies it, moves to O.
			setStateIn(e, q, Owned)
			res.Src = SrcCache
		case Owned:
			res.Src = SrcCache
		case Exclusive:
			setStateIn(e, q, Shared)
			res.Src = SrcCache
		}
	}
	if sharers > 0 {
		res.NewState = Shared
	}
	if e == nil {
		e = c.claim(line)
	}
	setStateIn(e, p, res.NewState)
	c.notify(p, OpRead, line, res)
	return res
}

// Write performs a local store by peer p.
func (c *Controller) Write(p int, line uint64) Result {
	e := c.slotOf(line)
	var states uint64
	if e != nil {
		states = e.states
	}
	local := stateBits(states, p)
	res := Result{NewState: Modified}
	switch local {
	case Modified:
		res := Result{NewState: Modified, Src: SrcNone, WasHit: true}
		c.notify(p, OpWrite, line, res)
		return res
	case Exclusive:
		// Silent upgrade: sole copy.
		setStateIn(e, p, Modified)
		res := Result{NewState: Modified, Src: SrcNone, WasHit: true}
		c.notify(p, OpWrite, line, res)
		return res
	case Shared, Owned:
		// Upgrade: invalidate every other sharer; data already local.
		res.Src = SrcNone
		res.WasHit = true
	case Invalid:
		res.Src = SrcMemory
	}
	for q := 0; q < c.numPeers; q++ {
		if q == p {
			continue
		}
		s := stateBits(states, q)
		if !s.Valid() {
			continue
		}
		if local == Invalid && s.CanSupply() {
			res.Src = SrcCache
		}
		setStateIn(e, q, Invalid)
		res.Invalidations++
	}
	if e == nil {
		e = c.claim(line)
	}
	setStateIn(e, p, Modified)
	c.notify(p, OpWrite, line, res)
	return res
}

// Evict removes peer p's copy (capacity replacement), reporting whether a
// writeback is required.
func (c *Controller) Evict(p int, line uint64) Result {
	var s State
	if e := c.slotOf(line); e != nil {
		s = stateBits(e.states, p)
		setStateIn(e, p, Invalid)
	}
	res := Result{NewState: Invalid, Writeback: s.Dirty()}
	c.notify(p, OpEvict, line, res)
	return res
}

// CheckInvariants validates the single-writer / single-owner properties
// over every line any peer holds. It returns an error describing the first
// violation.
func (c *Controller) CheckInvariants() error {
	for i := range c.dir {
		ent := &c.dir[i]
		if !ent.used || ent.states == 0 {
			continue
		}
		l := ent.line
		var mCount, eCount, oCount, valid int
		for q := 0; q < c.numPeers; q++ {
			switch stateBits(ent.states, q) {
			case Modified:
				mCount++
				valid++
			case Exclusive:
				eCount++
				valid++
			case Owned:
				oCount++
				valid++
			case Shared:
				valid++
			}
		}
		if mCount > 1 {
			return fmt.Errorf("coherence: line %#x has %d Modified copies", l, mCount)
		}
		if oCount > 1 {
			return fmt.Errorf("coherence: line %#x has %d Owned copies", l, oCount)
		}
		if mCount+oCount > 1 {
			return fmt.Errorf("coherence: line %#x has both M and O copies", l)
		}
		if (mCount == 1 || eCount == 1) && valid > 1 {
			return fmt.Errorf("coherence: line %#x in M/E with %d total copies", l, valid)
		}
		if eCount > 1 {
			return fmt.Errorf("coherence: line %#x has %d Exclusive copies", l, eCount)
		}
	}
	return nil
}
