// Package console models xenconsoled: the Dom0 daemon that drains
// each guest's console ring into a per-domain log. Guests write boot
// banners and runtime messages; `chaos -op console` and tests read
// them back. Rings are bounded like the real 4 KiB console ring —
// writers overwrite the oldest output when the reader falls behind.
package console

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"lightvm/internal/hv"
)

// RingSize is the per-domain console ring capacity in bytes.
const RingSize = 4096

// ErrNoConsole is returned for domains without an attached console.
var ErrNoConsole = errors.New("console: domain has no console")

// ring is one guest's console buffer.
type ring struct {
	buf     []byte
	dropped int // bytes overwritten before being read
}

// Daemon is the xenconsoled equivalent.
type Daemon struct {
	rings map[hv.DomID]*ring
}

// NewDaemon starts an empty console daemon.
func NewDaemon() *Daemon {
	return &Daemon{rings: make(map[hv.DomID]*ring)}
}

// Attach creates the console ring for a domain (idempotent).
func (d *Daemon) Attach(dom hv.DomID) {
	if _, ok := d.rings[dom]; !ok {
		d.rings[dom] = &ring{}
	}
}

// Detach drops a domain's console (domain destruction).
func (d *Daemon) Detach(dom hv.DomID) {
	delete(d.rings, dom)
}

// Write appends guest output to the domain's ring, overwriting the
// oldest bytes past capacity.
func (d *Daemon) Write(dom hv.DomID, msg string) error {
	r, err := d.lookup(dom)
	if err != nil {
		return err
	}
	r.buf = append(r.buf, msg...)
	r.trim()
	return nil
}

// Writef is Write with formatting, formatted straight into the ring.
func (d *Daemon) Writef(dom hv.DomID, format string, args ...interface{}) error {
	r, err := d.lookup(dom)
	if err != nil {
		return err
	}
	r.buf = fmt.Appendf(r.buf, format, args...)
	r.trim()
	return nil
}

func (d *Daemon) lookup(dom hv.DomID) (*ring, error) {
	r, ok := d.rings[dom]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoConsole, dom)
	}
	return r, nil
}

// trim drops the oldest bytes past RingSize.
func (r *ring) trim() {
	if over := len(r.buf) - RingSize; over > 0 {
		r.buf = r.buf[over:]
		r.dropped += over
	}
}

// Read returns the domain's buffered console output.
func (d *Daemon) Read(dom hv.DomID) (string, error) {
	r, ok := d.rings[dom]
	if !ok {
		return "", fmt.Errorf("%w: %d", ErrNoConsole, dom)
	}
	out := string(r.buf)
	if r.dropped > 0 {
		out = fmt.Sprintf("[%d bytes dropped]\n", r.dropped) + out
	}
	return out, nil
}

// Tail returns the last n lines of a domain's console.
func (d *Daemon) Tail(dom hv.DomID, n int) (string, error) {
	full, err := d.Read(dom)
	if err != nil {
		return "", err
	}
	lines := strings.Split(strings.TrimRight(full, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n"), nil
}

// Domains lists attached domains in order.
func (d *Daemon) Domains() []hv.DomID {
	out := make([]hv.DomID, 0, len(d.rings))
	for id := range d.rings {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
