package chrysalis

import (
	"errors"
	"fmt"

	"butterfly/internal/memory"
	"butterfly/internal/sim"
)

// ObjID names a Chrysalis object globally. Names are guessable small
// integers; Chrysalis lets any process map any object it can name, a
// protection loophole the paper calls out, and this model preserves that.
type ObjID int

// Kind distinguishes the object types subsumed by Chrysalis's single object
// model.
type Kind int

// Object kinds.
const (
	KindMemory Kind = iota
	KindEvent
	KindDualQueue
	KindProcess
)

func (k Kind) String() string {
	switch k {
	case KindMemory:
		return "memory"
	case KindEvent:
		return "event"
	case KindDualQueue:
		return "dual queue"
	case KindProcess:
		return "process"
	}
	return "unknown"
}

// Object is a node in the uniform ownership hierarchy: every object has an
// owner (another object) and a reference count; deleting a parent reclaims
// its subsidiary objects. Transferring ownership to "the system" detaches an
// object permanently — it will never be reclaimed (storage leak).
type Object struct {
	ID   ObjID
	Kind Kind
	Node int
	// Off and Size locate a KindMemory object's storage within its node's
	// module. Size is the rounded (standard) size.
	Off, Size int

	owner    *Object
	children []*Object
	refs     int
	deleted  bool
	system   bool // owned by "the system"

	// payload points back to the typed wrapper (Event, DualQueue, ...).
	payload any
}

// newObject registers an object in the global name space.
func (os *OS) newObject(kind Kind, node, size int, owner *Object) *Object {
	os.nextID++
	o := &Object{ID: os.nextID, Kind: kind, Node: node, Size: size, owner: owner, refs: 1}
	if owner != nil {
		owner.children = append(owner.children, o)
	}
	os.objects[o.ID] = o
	return o
}

// Lookup finds an object by name. Any process may look up any object — names
// are easy to guess on the real system.
func (os *OS) Lookup(id ObjID) *Object {
	o := os.objects[id]
	if o == nil || o.deleted {
		return nil
	}
	return o
}

// ErrObjectDeleted is returned for operations on reclaimed objects.
var ErrObjectDeleted = errors.New("chrysalis: object has been deleted")

// MakeObj allocates a memory object of the given size (rounded up to one of
// the 16 standard sizes) in node's memory. The creating process p is charged
// the creation cost; owner defaults to the caller's process root when p
// belongs to a Chrysalis process and owner is nil.
func (os *OS) MakeObj(p *sim.Proc, node, size int, owner *Object) (*Object, error) {
	rounded, err := memory.RoundSize(size)
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.Advance(os.Costs.MakeObj)
		if pr := os.M.Probe(); pr != nil {
			pr.Prim(p.LocalNow(), p.ID, node, "make_obj", os.Costs.MakeObj)
		}
	}
	off := 0
	if rounded > 0 {
		off, err = os.M.Node(node).Mem.Alloc(rounded)
		if err != nil {
			return nil, err
		}
	}
	if owner == nil && p != nil {
		if self := Self(p); self != nil {
			owner = self.Root
		}
	}
	o := os.newObject(KindMemory, node, rounded, owner)
	o.Off = off
	return o, nil
}

// DeleteObj removes an object and recursively reclaims everything it owns.
// Deleting a memory object frees its storage.
func (os *OS) DeleteObj(p *sim.Proc, o *Object) {
	if o == nil || o.deleted {
		return
	}
	o.deleted = true
	for _, c := range o.children {
		if !c.system {
			os.DeleteObj(nil, c)
		}
	}
	o.children = nil
	if o.Kind == KindMemory && o.Size > 0 {
		// Best effort; double frees cannot happen because deleted is set.
		_ = os.M.Node(o.Node).Mem.Free(o.Off, o.Size)
	}
	delete(os.objects, o.ID)
}

// TransferToSystem re-parents an object to "the system". The object becomes
// immortal: no ownership chain will ever reclaim it. The paper: "a facility
// for transferring ownership to 'the system' makes it easy to produce
// objects that are never reclaimed. Chrysalis tends to leak storage."
func (os *OS) TransferToSystem(o *Object) {
	if o.deleted || o.system {
		return
	}
	if o.owner != nil {
		for i, c := range o.owner.children {
			if c == o {
				o.owner.children = append(o.owner.children[:i], o.owner.children[i+1:]...)
				break
			}
		}
		o.owner = nil
	}
	o.system = true
	if o.Kind == KindMemory {
		os.leaked += o.Size
	}
}

// MapObj installs a memory object into the calling process's address space,
// consuming one SAR and over a millisecond of time — the recurring
// irritation of §2.1. It returns the SAR slot.
func (pr *Process) MapObj(o *Object) (int, error) {
	if o.deleted {
		return 0, ErrObjectDeleted
	}
	if o.Kind != KindMemory {
		return 0, fmt.Errorf("chrysalis: cannot map %s object", o.Kind)
	}
	pr.P.Advance(pr.OS.Costs.MapObj)
	if probe := pr.OS.M.Probe(); probe != nil {
		probe.Prim(pr.P.LocalNow(), pr.P.ID, o.Node, "map_obj", pr.OS.Costs.MapObj)
	}
	return pr.AS.Map(o.Node, o.Off, o.Size)
}

// UnmapObj removes a segment from the process's address space.
func (pr *Process) UnmapObj(slot int) error {
	pr.P.Advance(pr.OS.Costs.UnmapObj)
	if probe := pr.OS.M.Probe(); probe != nil {
		probe.Prim(pr.P.LocalNow(), pr.P.ID, pr.P.Node, "unmap_obj", pr.OS.Costs.UnmapObj)
	}
	return pr.AS.Unmap(slot)
}
