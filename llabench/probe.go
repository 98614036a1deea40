package main

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lla/internal/transport"
)

// wireProbe observes one distributed solve from outside the program: a
// transport.Network decorator counts and times every Send, and a
// transport.Codec decorator counts and times every frame encoded and read
// and every handshake step. Both forward every call unchanged. Durations
// and spans are recorded only in a traced pass.
type wireProbe struct {
	tr  *tracer
	op  int64
	run atomic.Int64 // the solve's dist.run span, parent of the wire spans

	sends, frames, frameBytes, encodeErrs, reads     atomic.Int64
	hellos, acks, acksBinary, accepts, acceptsBinary atomic.Int64

	mu       sync.Mutex
	sendSpan map[string]int64 // endpoint address -> its Send span in flight
	eps      []transport.Endpoint
	sendUs   []float64
	encodeUs []float64
	readUs   []float64
}

func newWireProbe(tr *tracer, op int64) *wireProbe {
	return &wireProbe{tr: tr, op: op, sendSpan: make(map[string]int64)}
}

// timed appends d to *dst under the probe's lock (traced passes only).
func (p *wireProbe) timed(dst *[]float64, d time.Duration) {
	p.mu.Lock()
	*dst = append(*dst, us(d))
	p.mu.Unlock()
}

// closeAll closes every endpoint the probed network created. The runtime
// closes its node endpoints but not the coordinator's; closing is
// idempotent, and each Close waits for the endpoint's goroutines.
func (p *wireProbe) closeAll() {
	p.mu.Lock()
	eps := p.eps
	p.eps = nil
	p.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

// negotiated returns "" when every connection of the solve agreed on the
// binary codec and every frame went out through it, else what went wrong.
// Without this the wire.* metrics could silently measure the JSON fallback.
func (p *wireProbe) negotiated() string {
	switch {
	case p.hellos.Load() == 0 || p.accepts.Load() == 0:
		return "no codec handshake took place"
	case p.acksBinary.Load() != p.acks.Load():
		return fmt.Sprintf("%d of %d dialed connections fell back to JSON", p.acks.Load()-p.acksBinary.Load(), p.acks.Load())
	case p.acceptsBinary.Load() != p.accepts.Load():
		return fmt.Sprintf("%d of %d accepted connections fell back to JSON", p.accepts.Load()-p.acceptsBinary.Load(), p.accepts.Load())
	case p.encodeErrs.Load() != 0:
		return fmt.Sprintf("%d messages the codec could not encode went out as JSON frames", p.encodeErrs.Load())
	case p.frames.Load() == 0 || p.reads.Load() == 0:
		return "no binary frame was written or read"
	}
	return ""
}

// probedNetwork decorates a transport.Network.
type probedNetwork struct {
	inner transport.Network
	p     *wireProbe
}

// Endpoint forwards to the inner network and wraps the endpoint.
func (n *probedNetwork) Endpoint(addr string) (transport.Endpoint, error) {
	ep, err := n.inner.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	n.p.mu.Lock()
	n.p.eps = append(n.p.eps, ep)
	n.p.mu.Unlock()
	return &probedEndpoint{inner: ep, p: n.p}, nil
}

// probedEndpoint decorates a transport.Endpoint.
type probedEndpoint struct {
	inner transport.Endpoint
	p     *wireProbe
}

func (e *probedEndpoint) Addr() string { return e.inner.Addr() }

func (e *probedEndpoint) Recv() <-chan transport.Message { return e.inner.Recv() }

func (e *probedEndpoint) Close() error { return e.inner.Close() }

// Send counts the send and, traced, times it as a transport.send span; the
// codec's encode of the same message becomes its child.
func (e *probedEndpoint) Send(to, kind string, payload any) error {
	p := e.p
	p.sends.Add(1)
	if p.tr == nil {
		return e.inner.Send(to, kind, payload)
	}
	id, st := p.tr.begin()
	addr := e.inner.Addr()
	p.mu.Lock()
	p.sendSpan[addr] = id
	p.mu.Unlock()
	t0 := time.Now()
	err := e.inner.Send(to, kind, payload)
	p.timed(&p.sendUs, time.Since(t0))
	p.mu.Lock()
	delete(p.sendSpan, addr)
	p.mu.Unlock()
	p.tr.end("transport.send", id, p.run.Load(), p.op, st)
	return err
}

// probedCodec decorates a transport.Codec, handshake included.
type probedCodec struct {
	inner transport.Codec
	p     *wireProbe
}

func (c *probedCodec) Name() string { return c.inner.Name() }

// Encode counts the frame and its bytes, and an encode error (after which
// the TCP transport sends the message as a JSON frame instead).
func (c *probedCodec) Encode(m transport.Message) ([]byte, error) {
	p := c.p
	if p.tr == nil {
		b, err := c.inner.Encode(m)
		p.countFrame(b, err)
		return b, err
	}
	id, st := p.tr.begin()
	t0 := time.Now()
	b, err := c.inner.Encode(m)
	p.timed(&p.encodeUs, time.Since(t0))
	p.countFrame(b, err)
	p.mu.Lock()
	parent, ok := p.sendSpan[m.From]
	p.mu.Unlock()
	if !ok {
		parent = p.run.Load()
	}
	p.tr.end("wire.encode", id, parent, p.op, st)
	return b, err
}

func (p *wireProbe) countFrame(b []byte, err error) {
	if err != nil {
		p.encodeErrs.Add(1)
		return
	}
	p.frames.Add(1)
	p.frameBytes.Add(int64(len(b)))
}

// Read counts and, traced, times one frame decode.
func (c *probedCodec) Read(r *bufio.Reader) (transport.Message, error) {
	p := c.p
	p.reads.Add(1)
	if p.tr == nil {
		return c.inner.Read(r)
	}
	id, st := p.tr.begin()
	t0 := time.Now()
	m, err := c.inner.Read(r)
	p.timed(&p.readUs, time.Since(t0))
	p.tr.end("wire.read", id, p.run.Load(), p.op, st)
	return m, err
}

func (c *probedCodec) Hello() []byte {
	c.p.hellos.Add(1)
	return c.inner.Hello()
}

func (c *probedCodec) ReadAck(r io.Reader) (bool, error) {
	ok, err := c.inner.ReadAck(r)
	if err == nil {
		c.p.acks.Add(1)
		if ok {
			c.p.acksBinary.Add(1)
		}
	}
	return ok, err
}

func (c *probedCodec) Sniff(prefix []byte) bool { return c.inner.Sniff(prefix) }

func (c *probedCodec) Accept(prefix []byte, r io.Reader) ([]byte, bool, error) {
	ack, ok, err := c.inner.Accept(prefix, r)
	if err == nil {
		c.p.accepts.Add(1)
		if ok {
			c.p.acceptsBinary.Add(1)
		}
	}
	return ack, ok, err
}
