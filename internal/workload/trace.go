package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements access-trace files: any Generator's stream can be
// recorded to a text file and replayed later, exactly like the paper's
// gem5 trace flow. The format is line-oriented and greppable:
//
//	#ipextrace v1 <name> <instructions>
//	<pc-hex>                     — instruction without a data access
//	<pc-hex> R <addr-hex>        — load
//	<pc-hex> W <addr-hex>        — store
//
// Traces recorded from real hardware or another simulator can be fed to
// the NVP simulator through ReadTrace as long as they follow this format.

// traceMagic is the header prefix of a v1 trace.
const traceMagic = "#ipextrace v1"

// WriteTrace records g's complete stream to w. The generator is consumed;
// Reset it afterwards if it is needed again.
func WriteTrace(g Generator, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "%s %s %d\n", traceMagic, g.Name(), g.Len()); err != nil {
		return err
	}
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		var err error
		switch {
		case !a.HasData:
			_, err = fmt.Fprintf(bw, "%x\n", a.PC)
		case a.Write:
			_, err = fmt.Fprintf(bw, "%x W %x\n", a.PC, a.DataAddr)
		default:
			_, err = fmt.Fprintf(bw, "%x R %x\n", a.PC, a.DataAddr)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace file and returns a replayable generator holding
// the whole stream in memory.
func ReadTrace(r io.Reader) (Generator, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("workload: reading trace header: %w", err)
		}
		return nil, fmt.Errorf("workload: empty trace file")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, traceMagic) {
		return nil, fmt.Errorf("workload: not an ipextrace v1 file (header %q)", header)
	}
	fields := strings.Fields(header[len(traceMagic):])
	if len(fields) != 2 {
		return nil, fmt.Errorf("workload: malformed trace header %q", header)
	}
	name := fields[0]
	declared, err := strconv.Atoi(fields[1])
	if err != nil || declared < 0 {
		return nil, fmt.Errorf("workload: bad instruction count in header %q", header)
	}

	accesses := make([]Access, 0, declared)
	line := 1
	for sc.Scan() {
		line++
		txt := sc.Text()
		if len(txt) == 0 || txt[0] == '#' {
			continue
		}
		a, err := parseTraceLine(txt)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		accesses = append(accesses, a)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if declared != 0 && len(accesses) != declared {
		return nil, fmt.Errorf("workload: header declares %d instructions, file has %d", declared, len(accesses))
	}
	return FromAccesses(name, accesses), nil
}

func parseTraceLine(txt string) (Access, error) {
	var a Access
	fields := strings.Fields(txt)
	switch len(fields) {
	case 1:
		pc, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return a, err
		}
		a.PC = pc
	case 3:
		pc, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return a, err
		}
		addr, err := strconv.ParseUint(fields[2], 16, 64)
		if err != nil {
			return a, err
		}
		switch fields[1] {
		case "R":
		case "W":
			a.Write = true
		default:
			return a, fmt.Errorf("bad access kind %q", fields[1])
		}
		a.PC = pc
		a.HasData = true
		a.DataAddr = addr
	default:
		return a, fmt.Errorf("malformed line %q", txt)
	}
	return a, nil
}

// FromAccesses wraps a pre-built access slice as a replayable Generator —
// the in-memory form of a trace file, also handy for tests and custom
// tooling. The returned generator is a *Cursor over a fresh Stream.
func FromAccesses(name string, accesses []Access) Generator {
	return NewStream(name, accesses).Cursor()
}

// Stream is an immutable, fully materialized access trace: one shared
// read-only arena per (app, scale) that any number of concurrent replays
// cursor over without copying. The Store hands out the same Stream to every
// sweep worker, so the hot trace pages are shared across the whole process.
//
// A Stream must never be mutated after construction; every Cursor and every
// direct Accesses() reader depends on that.
type Stream struct {
	name     string
	accesses []Access
}

// NewStream wraps a pre-built access slice as an immutable trace arena. The
// caller must not modify the slice afterwards.
func NewStream(name string, accesses []Access) *Stream {
	return &Stream{name: name, accesses: accesses}
}

// Name returns the workload name the stream replays.
func (s *Stream) Name() string { return s.name }

// Len returns the instruction count.
func (s *Stream) Len() int { return len(s.accesses) }

// Accesses returns the shared backing slice. Read-only: callers iterate it
// directly (the simulator's loop does) but must never write to it.
func (s *Stream) Accesses() []Access { return s.accesses }

// Cursor returns a fresh replay cursor positioned at the start.
func (s *Stream) Cursor() *Cursor {
	c := &Cursor{}
	c.Bind(s)
	return c
}

// Cursor is a replay position over a Stream. It implements Generator, and —
// unlike a generator built per run — it is a plain rebindable value: the
// simulator's arena keeps one Cursor per worker and Binds it to the next
// cell's Stream, so steady-state runs allocate nothing for their workload.
// Each Cursor has its own position; concurrent replays need distinct
// Cursors but share the Stream.
type Cursor struct {
	stream *Stream
	pos    int
}

// Bind points the cursor at a stream and rewinds it to the start.
func (c *Cursor) Bind(s *Stream) {
	c.stream = s
	c.pos = 0
}

// Stream returns the bound stream (nil for an unbound cursor).
func (c *Cursor) Stream() *Stream { return c.stream }

// Pos returns how many accesses have been consumed.
func (c *Cursor) Pos() int { return c.pos }

// SetPos moves the replay position (clamped to [0, Len]); the simulator's
// loop iterates the stream slice directly and re-synchronizes the cursor
// with it on exit.
func (c *Cursor) SetPos(n int) {
	if n < 0 {
		n = 0
	}
	if max := c.stream.Len(); n > max {
		n = max
	}
	c.pos = n
}

// Name implements Generator.
func (c *Cursor) Name() string { return c.stream.name }

// Len implements Generator.
func (c *Cursor) Len() int { return len(c.stream.accesses) }

// Next implements Generator.
func (c *Cursor) Next() (Access, bool) {
	acc := c.stream.accesses
	if c.pos >= len(acc) {
		return Access{}, false
	}
	a := acc[c.pos]
	c.pos++
	return a, true
}

// Reset implements Generator.
func (c *Cursor) Reset() { c.pos = 0 }
