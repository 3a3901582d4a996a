// Package net implements NET (Hinkelman, BPR 5; §3.2 of the paper), the
// first systems package developed for the Butterfly at Rochester: a utility
// for building regular rectangular process meshes — lines, rings, cylinders,
// and tori — whose elements are connected to their neighbours by byte
// streams. "Where Chrysalis required over 100 lines of code to create a
// single process, NET could create a mesh of processes, including
// communication connections, in half a page of code."
//
// NET predates SMP's typed messages: its streams carry raw bytes with no
// message boundaries, like Unix pipes between neighbouring processes.
package net

import (
	"errors"
	"fmt"

	"butterfly/internal/chrysalis"
	"butterfly/internal/sim"
)

// Shape selects the mesh topology.
type Shape int

// Mesh shapes, in NET's vocabulary.
const (
	// ShapeLine connects element i to i+1 along one dimension.
	ShapeLine Shape = iota
	// ShapeRing closes a line into a cycle.
	ShapeRing
	// ShapeGrid is a W x H rectangle with 4-neighbour connections.
	ShapeGrid
	// ShapeCylinder wraps the grid's X dimension.
	ShapeCylinder
	// ShapeTorus wraps both dimensions.
	ShapeTorus
)

func (s Shape) String() string {
	switch s {
	case ShapeLine:
		return "line"
	case ShapeRing:
		return "ring"
	case ShapeGrid:
		return "grid"
	case ShapeCylinder:
		return "cylinder"
	case ShapeTorus:
		return "torus"
	}
	return "unknown"
}

// Config describes a mesh.
type Config struct {
	Shape Shape
	// W and H are the mesh dimensions (H is 1 for lines and rings).
	W, H int
	// StreamBuf is the byte-stream buffer capacity per connection.
	StreamBuf int
}

// Element is one mesh process's view: its coordinates and the streams to its
// neighbours.
type Element struct {
	X, Y int
	Pr   *chrysalis.Process
	P    *sim.Proc

	mesh *Mesh
	// streams[d] connects to the neighbour in direction d, or nil.
	streams [4]*Stream
}

// Directions index Element streams.
const (
	East = iota
	West
	North
	South
)

// DirName returns a direction's name.
func DirName(d int) string {
	return [...]string{"east", "west", "north", "south"}[d]
}

// Mesh is a built process mesh.
type Mesh struct {
	Cfg      Config
	OS       *chrysalis.OS
	Elements []*Element
}

// Stream is a unidirectional byte stream between two neighbouring elements,
// implemented over a shared-memory ring buffer on the reader's node with a
// Chrysalis dual queue carrying chunk descriptors.
type Stream struct {
	os       *chrysalis.OS
	fromNode int
	toNode   int
	q        *chrysalis.DualQueue
	buf      []byte
	// chunks holds the byte counts of queued writes; the dual queue datum
	// indexes it. Data bytes are carried natively in data.
	data map[uint32][]byte
	next uint32
}

// newStream builds a stream homed on the reader's node.
func newStream(os *chrysalis.OS, fromNode, toNode, capacity int) *Stream {
	return &Stream{
		os:       os,
		fromNode: fromNode,
		toNode:   toNode,
		q:        os.NewDualQueue(toNode, nil),
		buf:      make([]byte, 0, capacity),
		data:     make(map[uint32][]byte),
	}
}

// Write sends bytes downstream. The writer is charged the block transfer to
// the reader's node plus the enqueue of a chunk descriptor.
func (s *Stream) Write(p *sim.Proc, b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	words := (len(b) + 3) / 4
	s.os.M.BlockCopy(p, p.Node, s.toNode, words)
	id := s.next
	s.next++
	s.data[id] = append([]byte(nil), b...)
	s.q.Enqueue(p, id)
	return len(b), nil
}

// Read receives at least one byte (blocking) and at most len(b) bytes,
// returning the count — Unix pipe semantics over the simulated machine.
func (s *Stream) Read(p *sim.Proc, b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	// Drain buffered bytes first.
	if len(s.buf) == 0 {
		id := s.q.Dequeue(p)
		chunk := s.data[id]
		delete(s.data, id)
		s.buf = append(s.buf, chunk...)
		// Local copy out of the ring buffer.
		s.os.M.Read(p, p.Node, (len(chunk)+3)/4)
	}
	n := copy(b, s.buf)
	s.buf = append(s.buf[:0], s.buf[n:]...)
	return n, nil
}

// ReadFull reads exactly len(b) bytes.
func (s *Stream) ReadFull(p *sim.Proc, b []byte) error {
	got := 0
	for got < len(b) {
		n, err := s.Read(p, b[got:])
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}

// Build creates the mesh: one Chrysalis process per element (assigned
// round-robin to machine nodes), all neighbour streams connected, and body
// running as each element. This is NET's half-page-of-code pitch: the caller
// provides only the shape and the element body.
func Build(os *chrysalis.OS, cfg Config, body func(e *Element)) (*Mesh, error) {
	if cfg.W <= 0 {
		return nil, errors.New("net: mesh width must be positive")
	}
	if cfg.H <= 0 {
		cfg.H = 1
	}
	if cfg.StreamBuf <= 0 {
		cfg.StreamBuf = 4096
	}
	switch cfg.Shape {
	case ShapeLine, ShapeRing:
		if cfg.H != 1 {
			return nil, fmt.Errorf("net: %v must have H == 1", cfg.Shape)
		}
		if cfg.W < 2 {
			return nil, fmt.Errorf("net: %v needs W >= 2", cfg.Shape)
		}
	case ShapeGrid, ShapeCylinder, ShapeTorus:
		if cfg.W < 2 || cfg.H < 2 {
			return nil, fmt.Errorf("net: %v needs W,H >= 2", cfg.Shape)
		}
	default:
		return nil, fmt.Errorf("net: unknown shape %d", cfg.Shape)
	}
	mesh := &Mesh{Cfg: cfg, OS: os}
	n := cfg.W * cfg.H
	nodes := os.M.N()
	for i := 0; i < n; i++ {
		mesh.Elements = append(mesh.Elements, &Element{X: i % cfg.W, Y: i / cfg.W, mesh: mesh})
	}
	// Wire the streams (one per direction per connected pair).
	wrapX := cfg.Shape == ShapeRing || cfg.Shape == ShapeCylinder || cfg.Shape == ShapeTorus
	wrapY := cfg.Shape == ShapeTorus
	at := func(x, y int) *Element { return mesh.Elements[y*cfg.W+x] }
	nodeOf := func(e *Element) int { return (e.Y*cfg.W + e.X) % nodes }
	// Wiring convention: an element's streams are the ones it READS,
	// indexed by the direction the data arrives from; writing east delivers
	// into the east neighbour's West input (see Element.Out).
	for y := 0; y < cfg.H; y++ {
		for x := 0; x < cfg.W; x++ {
			e := at(x, y)
			// East neighbour.
			if x+1 < cfg.W || wrapX {
				nb := at((x+1)%cfg.W, y)
				// Stream carrying e's data to nb (nb reads from West).
				nb.streams[West] = newStream(os, nodeOf(e), nodeOf(nb), cfg.StreamBuf)
				// Stream carrying nb's data to e (e reads from East).
				e.streams[East] = newStream(os, nodeOf(nb), nodeOf(e), cfg.StreamBuf)
			}
			// South neighbour.
			if cfg.H > 1 && (y+1 < cfg.H || wrapY) {
				nb := at(x, (y+1)%cfg.H)
				nb.streams[North] = newStream(os, nodeOf(e), nodeOf(nb), cfg.StreamBuf)
				e.streams[South] = newStream(os, nodeOf(nb), nodeOf(e), cfg.StreamBuf)
			}
		}
	}
	// Spawn the element processes.
	for i, e := range mesh.Elements {
		e := e
		pr, err := os.MakeProcess(nil, fmt.Sprintf("net[%d,%d]", e.X, e.Y), i%nodes, 32, func(self *chrysalis.Process) {
			e.Pr = self
			e.P = self.P
			body(e)
		})
		if err != nil {
			return nil, err
		}
		e.Pr = pr
	}
	return mesh, nil
}

// In returns the stream delivering data from the neighbour in direction d,
// or nil at a mesh edge.
func (e *Element) In(d int) *Stream { return e.streams[d] }

// Out returns the stream that carries this element's writes toward the
// neighbour in direction d, or nil at an edge. (Writing east delivers to the
// east neighbour's West input.)
func (e *Element) Out(d int) *Stream {
	m := e.mesh
	wrapX := m.Cfg.Shape == ShapeRing || m.Cfg.Shape == ShapeCylinder || m.Cfg.Shape == ShapeTorus
	wrapY := m.Cfg.Shape == ShapeTorus
	at := func(x, y int) *Element { return m.Elements[y*m.Cfg.W+x] }
	switch d {
	case East:
		if e.X+1 < m.Cfg.W || wrapX {
			return at((e.X+1)%m.Cfg.W, e.Y).streams[West]
		}
	case West:
		if e.X > 0 || wrapX {
			return at((e.X-1+m.Cfg.W)%m.Cfg.W, e.Y).streams[East]
		}
	case South:
		if m.Cfg.H > 1 && (e.Y+1 < m.Cfg.H || wrapY) {
			return at(e.X, (e.Y+1)%m.Cfg.H).streams[North]
		}
	case North:
		if m.Cfg.H > 1 && (e.Y > 0 || wrapY) {
			return at(e.X, (e.Y-1+m.Cfg.H)%m.Cfg.H).streams[South]
		}
	}
	return nil
}
