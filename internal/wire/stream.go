// Incremental run decoding for the streaming merge: a RunReader consumes an
// encoded Step-3 run chunk by chunk — sliced at ARBITRARY byte boundaries,
// as the chunked exchange delivers it — and yields decoded strings on
// demand, resumable mid-frame. The decoded output is identical, string for
// string and LCP for LCP, to the corresponding one-shot decoder
// (DecodeStrings / DecodeStringsLCP): the streaming seam must not change a
// single byte of what the merge sees.
//
// Aliasing contract: decoded strings NEVER alias the fed chunks. Every
// character is copied into reader-owned arenas, so callers may recycle (or
// scribble over) a chunk buffer the moment Feed returns — which they do:
// chunks come from the transport's buffer pool and are released
// immediately. Arenas are append-only and never overwritten, so a string
// handed out by Next stays valid and immutable for the lifetime of the
// reader's output (the loser tree caches heads and the merged Sequence
// aliases them; see merge.Source for the consuming side of the contract).
package wire

import "encoding/binary"

// RunFormat identifies the wire layout of one exchanged run for incremental
// decoding. The layouts are exactly the ones the sorters' Step-3 encoders
// produce; RunReader must track every format change made there.
type RunFormat int

const (
	// RunStrings is the EncodeStrings layout: count, then length-prefixed
	// strings (MS-simple and FKmerge).
	RunStrings RunFormat = iota
	// RunStringsLCP is the EncodeStringsLCP layout: count, then per string
	// the LCP with the predecessor and the remaining suffix (MS, and the
	// prefix blob of a PDMS bucket).
	RunStringsLCP
)

// Item is one decoded string of a run: the string itself, its LCP with the
// run's previous string (0 for the first, and always 0 for RunStrings),
// and its satellite word (0 as decoded; the PDMS budget merge attaches
// each prefix's origin).
type Item struct {
	S   []byte
	LCP int32
	Sat uint64
}

// parse status of one pump step.
type status int

const (
	stOK status = iota
	stNeedMore
	stFail
)

// state machine positions: the string count, then the strings.
type rrState int

const (
	rrCount rrState = iota
	rrItem
	rrDone
)

// RunReader incrementally decodes one encoded run. Feed it the run's bytes
// in any number of chunks (copied internally), call Finish when the last
// chunk is in, and pull decoded strings with Next. A reader is confined to
// one goroutine.
type RunReader struct {
	format   RunFormat
	pending  []byte // buffered undecoded bytes (copies of fed chunks)
	off      int    // consumed prefix of pending
	finished bool
	err      error

	st  rrState
	cnt uint64 // declared string count (valid from state > rrCount)

	arena   []byte // decoded characters; items' strings are sub-slices
	prev    []byte // previously decoded string, for LCP rematerialization
	items   []Item // decoded items awaiting emission (minus the recycled prefix)
	base    int    // items dropped from the front of items by Recycle
	emitted int    // items handed out by Next, run-total
}

// NewRunReader returns a reader for one run in the given format.
func NewRunReader(format RunFormat) *RunReader {
	// The arena starts non-nil so that every decoded string — including an
	// empty string at the very start of the run — is a non-nil slice, like
	// the one-shot decoders produce. A nil head would read as the loser
	// tree's +∞ exhausted sentinel and silently drop the rest of the run.
	return &RunReader{format: format, arena: []byte{}}
}

// Feed appends the next chunk of the encoded run. The chunk is copied; the
// caller keeps ownership and may recycle it immediately. Feeding after
// Finish, or garbage past the end of a complete run, is ignored — exactly
// like the one-shot decoders ignore trailing bytes.
func (r *RunReader) Feed(chunk []byte) {
	if r.finished || r.st == rrDone || r.err != nil {
		return
	}
	// Compact the consumed prefix before growing: decoded strings live in
	// the arena, never in pending, so the move invalidates nothing.
	if r.off > 0 && (r.off >= len(r.pending) || r.off > 4096) {
		r.pending = append(r.pending[:0], r.pending[r.off:]...)
		r.off = 0
	}
	r.pending = append(r.pending, chunk...)
	r.pump()
}

// Finish marks the end of the run's byte stream. A run still mid-item after
// Finish is truncated and reports an error from Next.
func (r *RunReader) Finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.pump()
}

// Done reports that every string of the run has been decoded and emitted.
func (r *RunReader) Done() bool {
	return r.err == nil && r.st == rrDone && r.emitted == int(r.cnt)
}

// Err returns the first decoding error, if any.
func (r *RunReader) Err() error { return r.err }

// Next returns the next decoded string of the run. ok=false with a nil
// error means no string is available yet: more chunks are needed, or —
// when Done reports true — the run is complete. The returned Item's string
// obeys the aliasing contract in the package comment.
func (r *RunReader) Next() (Item, bool, error) {
	if r.err != nil {
		return Item{}, false, r.err
	}
	if r.emitted < r.decoded() {
		it := r.items[r.emitted-r.base]
		r.items[r.emitted-r.base] = Item{} // drop the reader's alias early
		r.emitted++
		return it, true, nil
	}
	if r.finished && !r.Done() {
		// The stream ended but the run is incomplete and no parse error was
		// recorded: the remaining items can never materialize.
		r.err = ErrTruncated
		return Item{}, false, r.err
	}
	return Item{}, false, nil
}

// decoded returns the run-total number of strings decoded so far.
func (r *RunReader) decoded() int { return r.base + len(r.items) }

// ArenaBytes returns the live size of the reader's character arena: the
// decoded-but-not-recycled characters a budget accountant should meter.
// The buffered undecoded chunk bytes (bounded by the exchange frame size)
// and the one stale arena block pinned by prev after a Recycle are the
// documented fixed overhead on top of this figure.
func (r *RunReader) ArenaBytes() int { return len(r.arena) }

// Recycle drops the reader's references to every item already emitted and —
// once no decoded item is left waiting — replaces the character arena with a
// fresh one, returning the number of arena bytes released. Strings handed
// out earlier stay valid (arenas are never overwritten, only unreferenced),
// but a caller that recycles takes over their lifetime: the reader no longer
// pins them. prev keeps aliasing the retired arena until the next string is
// decoded against it; that one stale block is part of the documented budget
// overhead allowance.
func (r *RunReader) Recycle() int {
	if d := r.emitted - r.base; d > 0 {
		n := copy(r.items, r.items[d:])
		clear(r.items[n:])
		r.items = r.items[:n]
		r.base = r.emitted
	}
	if len(r.items) > 0 {
		// Undrained items still alias the arena; nothing to release yet.
		return 0
	}
	freed := len(r.arena)
	if freed > 0 {
		r.arena = []byte{}
	}
	return freed
}

// pump advances the state machine over the buffered bytes as far as it can.
func (r *RunReader) pump() {
	for r.err == nil {
		switch r.st {
		case rrCount:
			v, s := r.uvarint()
			if s != stOK {
				return
			}
			r.cnt = v
			if v == 0 {
				r.st = rrDone
				continue
			}
			r.st = rrItem
		case rrItem:
			if s := r.item(); s != stOK {
				return
			}
			if uint64(r.decoded()) == r.cnt {
				r.st = rrDone
			}
		case rrDone:
			return
		}
	}
}

// short classifies an incomplete parse: after Finish the bytes can never
// arrive (ErrTruncated, matching the one-shot decoders); otherwise more
// chunks are simply needed.
func (r *RunReader) short() status {
	if r.finished {
		r.err = ErrTruncated
		return stFail
	}
	return stNeedMore
}

// uvarint parses one varint at the read position.
func (r *RunReader) uvarint() (uint64, status) {
	v, n := binary.Uvarint(r.pending[r.off:])
	if n > 0 {
		r.off += n
		return v, stOK
	}
	if n < 0 {
		r.err = ErrCorrupt
		return 0, stFail
	}
	return 0, r.short()
}

// item transactionally parses one string record: nothing is consumed
// unless the whole record is available.
func (r *RunReader) item() status {
	win := r.pending[r.off:]
	pos := 0
	next := func() (uint64, status) {
		v, n := binary.Uvarint(win[pos:])
		if n > 0 {
			pos += n
			return v, stOK
		}
		if n < 0 {
			r.err = ErrCorrupt
			return 0, stFail
		}
		return 0, r.short()
	}

	var h, length uint64
	var s status
	if r.format == RunStringsLCP {
		if h, s = next(); s != stOK {
			return s
		}
	}
	if length, s = next(); s != stOK {
		return s
	}
	if length > uint64(len(win)-pos) {
		return r.short()
	}
	body := win[pos : pos+int(length)]
	pos += int(length)

	switch r.format {
	case RunStringsLCP:
		// Mirror the one-shot validation: the first string carries no
		// prefix, and no prefix may exceed the predecessor's length.
		if (r.decoded() == 0 && h != 0) || h > uint64(len(r.prev)) {
			r.err = ErrCorrupt
			return stFail
		}
		off := len(r.arena)
		r.arena = append(r.arena, r.prev[:h]...)
		r.arena = append(r.arena, body...)
		end := len(r.arena)
		str := r.arena[off:end:end]
		r.prev = str
		r.items = append(r.items, Item{S: str, LCP: int32(h)})
	default:
		off := len(r.arena)
		r.arena = append(r.arena, body...)
		end := len(r.arena)
		r.items = append(r.items, Item{S: r.arena[off:end:end]})
	}
	r.off += pos
	return stOK
}
