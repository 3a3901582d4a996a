// Package psyche models the Psyche operating system design (Scott, LeBlanc
// & Marsh; §3.4 of the paper — under construction on the Butterfly Plus when
// the paper was written). Psyche aims at truly general-purpose parallel
// computing: it must support many programming models at once and let program
// fragments written under different models coexist and interact.
//
// Its mechanisms, reproduced here:
//
//   - A uniform virtual address space shared by all threads, in which
//     passive data abstractions called realms live. A realm's access
//     protocol (its operations) defines the conventions for sharing.
//   - An explicit tradeoff between protection and performance: a realm
//     opened without protection boundaries is invoked as efficiently as a
//     procedure call; a protected realm costs a kernel trap on every
//     invocation.
//   - Lazy evaluation of privileges: rights are checked (against keys and
//     access lists) only on first contact between a protection domain and a
//     realm; the verified privilege is then cached so later invocations pay
//     nothing for protection they have already established.
package psyche

import (
	"errors"
	"fmt"

	"butterfly/internal/chrysalis"
	"butterfly/internal/sim"
)

// Right is a privilege bit.
type Right int

// Rights.
const (
	// RightInvoke permits calling the realm's operations.
	RightInvoke Right = 1 << iota
	// RightDestroy permits destroying the realm.
	RightDestroy
	// RightGrant permits adding entries to the realm's access list.
	RightGrant
)

// Key is an unforgeable capability token held by protection domains.
type Key uint64

// Protection selects a realm's invocation discipline — the explicit
// protection/performance tradeoff.
type Protection int

// Protection levels.
const (
	// Optimized realms are invoked like procedure calls; the access
	// conventions are not enforced after the first (lazy) check.
	Optimized Protection = iota
	// Protected realms trap to the kernel on every invocation.
	Protected
)

func (p Protection) String() string {
	if p == Protected {
		return "protected"
	}
	return "optimized"
}

// Costs calibrates the kernel.
type Costs struct {
	// ProcCallNs is an optimized invocation's overhead (a procedure call).
	ProcCallNs int64
	// KernelTrapNs is the cost of entering and leaving the kernel.
	KernelTrapNs int64
	// ACLCheckNsPerEntry is the per-entry cost of scanning an access list
	// during lazy privilege evaluation.
	ACLCheckNsPerEntry int64
}

// DefaultCosts returns plausible Butterfly Plus figures.
func DefaultCosts() Costs {
	return Costs{
		ProcCallNs:         5 * sim.Microsecond,
		KernelTrapNs:       250 * sim.Microsecond,
		ACLCheckNsPerEntry: 10 * sim.Microsecond,
	}
}

// Kernel is one Psyche instance.
type Kernel struct {
	OS    *chrysalis.OS
	Costs Costs

	nextKey Key
	realms  []*Realm
	stats   Stats
}

// Stats counts kernel activity.
type Stats struct {
	Invocations     uint64
	KernelTraps     uint64
	PrivilegeFaults uint64 // lazy checks performed
}

// New boots Psyche over a Chrysalis machine (the real project targeted the
// Butterfly Plus; any machine configuration works here).
func New(os *chrysalis.OS) *Kernel {
	return &Kernel{OS: os, Costs: DefaultCosts()}
}

// Stats returns a copy of the counters.
func (k *Kernel) Stats() Stats { return k.stats }

// NewKey mints a fresh key.
func (k *Kernel) NewKey() Key {
	k.nextKey++
	return k.nextKey
}

// Operation is a realm operation: data plus protocol.
type Operation func(p *sim.Proc, args any) any

// Realm is a passive data abstraction in the uniform address space.
type Realm struct {
	Name string
	// Node is where the realm's data lives; invocations from other nodes
	// pay remote references for the touched words.
	Node int
	// Prot is the invocation discipline.
	Prot Protection
	// TouchWords is how many data words a typical operation references.
	TouchWords int

	kernel *Kernel
	ops    map[string]Operation
	acl    map[Key]Right
	// version invalidates cached privileges when the ACL changes.
	version uint64
}

// NewRealm creates a realm with an initial access list entry for ownerKey.
func (k *Kernel) NewRealm(name string, node int, prot Protection, ownerKey Key) *Realm {
	r := &Realm{
		Name:       name,
		Node:       node,
		Prot:       prot,
		TouchWords: 4,
		kernel:     k,
		ops:        make(map[string]Operation),
		acl:        map[Key]Right{ownerKey: RightInvoke | RightDestroy | RightGrant},
	}
	k.realms = append(k.realms, r)
	return r
}

// Bind installs an operation in the realm's access protocol.
func (r *Realm) Bind(op string, fn Operation) { r.ops[op] = fn }

// Grant adds rights for a key. The caller's domain must hold RightGrant.
func (r *Realm) Grant(d *Domain, key Key, rights Right) error {
	if err := r.check(d, RightGrant); err != nil {
		return err
	}
	r.acl[key] |= rights
	r.version++
	return nil
}

// Revoke removes a key's rights and invalidates every cached privilege.
func (r *Realm) Revoke(d *Domain, key Key) error {
	if err := r.check(d, RightGrant); err != nil {
		return err
	}
	delete(r.acl, key)
	r.version++
	return nil
}

// Errors.
var (
	ErrNoRight = errors.New("psyche: protection violation")
	ErrNoOp    = errors.New("psyche: no such operation in access protocol")
)

// Domain is a protection domain: a Chrysalis process plus its keys and the
// realms it has (lazily) opened.
type Domain struct {
	Pr     *chrysalis.Process
	Kernel *Kernel

	keys   []Key
	opened map[*Realm]openState
}

type openState struct {
	rights  Right
	version uint64
}

// NewDomain wraps a Chrysalis process as a protection domain.
func (k *Kernel) NewDomain(pr *chrysalis.Process, keys ...Key) *Domain {
	return &Domain{Pr: pr, Kernel: k, keys: keys, opened: make(map[*Realm]openState)}
}

// check performs lazy privilege evaluation: the first contact between the
// domain and the realm (or the first after an ACL change) costs a kernel
// trap plus an access-list scan; afterwards the verified rights are cached
// and checking is free.
func (r *Realm) check(d *Domain, need Right) error {
	if st, ok := d.opened[r]; ok && st.version == r.version {
		if st.rights&need == need {
			return nil
		}
		return fmt.Errorf("%w: domain lacks right %d on realm %q", ErrNoRight, need, r.Name)
	}
	// Privilege fault: evaluate now.
	k := r.kernel
	k.stats.PrivilegeFaults++
	k.stats.KernelTraps++
	d.Pr.P.Advance(k.Costs.KernelTrapNs + int64(len(r.acl))*k.Costs.ACLCheckNsPerEntry)
	var have Right
	for _, key := range d.keys {
		have |= r.acl[key]
	}
	d.opened[r] = openState{rights: have, version: r.version}
	if have&need == need {
		return nil
	}
	return fmt.Errorf("%w: domain lacks right %d on realm %q", ErrNoRight, need, r.Name)
}

// Invoke calls a realm operation from the domain. Optimized realms cost a
// procedure call (plus the data references); protected realms trap to the
// kernel every time. Either way the first contact pays the lazy privilege
// evaluation.
func (d *Domain) Invoke(r *Realm, op string, args any) (any, error) {
	if err := r.check(d, RightInvoke); err != nil {
		return nil, err
	}
	fn, ok := r.ops[op]
	if !ok {
		return nil, fmt.Errorf("%w: %q on realm %q", ErrNoOp, op, r.Name)
	}
	k := r.kernel
	k.stats.Invocations++
	p := d.Pr.P
	switch r.Prot {
	case Protected:
		k.stats.KernelTraps++
		p.Advance(k.Costs.KernelTrapNs)
	default:
		p.Advance(k.Costs.ProcCallNs)
	}
	// Touch the realm's data in the uniform address space; flush the lazy
	// reference charge so the operation body runs at the touch's completion
	// time.
	k.OS.M.Read(p, r.Node, r.TouchWords)
	p.Sync()
	return fn(p, args), nil
}

// Destroy removes the realm (requires RightDestroy).
func (d *Domain) Destroy(r *Realm) error {
	if err := r.check(d, RightDestroy); err != nil {
		return err
	}
	r.ops = nil
	r.acl = map[Key]Right{}
	r.version++
	return nil
}
