package bridge

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"butterfly/internal/chrysalis"
	"butterfly/internal/sim"
)

// File is an interleaved Bridge file: logical block i lives on the disk
// named by diskOf[i]. For freshly created files the assignment is
// round-robin; tools (such as the distribution sort) may produce other
// layouts.
type File struct {
	Name   string
	blocks [][]byte
	diskOf []int
}

// Blocks returns the number of logical blocks.
func (f *File) Blocks() int { return len(f.blocks) }

// Bytes returns the file's full contents (test/tool convenience; charges
// nothing — use Read for timed access).
func (f *File) Bytes() []byte {
	var out []byte
	for _, b := range f.blocks {
		out = append(out, b...)
	}
	return out
}

// Bridge is the parallel file system: a set of local file systems (one per
// disk node), each run by a resident server process, plus the interleaving
// logic.
type Bridge struct {
	OS    *chrysalis.OS
	Disks []*Disk

	files   map[string]*File
	servers []*chrysalis.Process
	reqQs   []*chrysalis.DualQueue
	reqs    []request
	free    []int

	// CPUPerBlockNs is server-side per-block processing cost (buffer
	// management, checksum) charged in addition to disk time.
	CPUPerBlockNs int64
}

// request is a unit of work for one LFS server.
type request struct {
	run  func(p *sim.Proc)
	done *completion
}

// completion is a one-shot wakeup flag.
type completion struct {
	done bool
	wq   *sim.WaitQueue
}

func newCompletion(what string) *completion {
	return &completion{wq: sim.NewWaitQueue(what)}
}

func (c *completion) wait(p *sim.Proc) {
	if !c.done {
		c.wq.Wait(p)
	}
}

func (c *completion) signal(p *sim.Proc) {
	c.done = true
	c.wq.WakeAll(p, 0)
}

const poison = ^uint32(0)

// New builds a Bridge over disks attached to the given nodes and starts one
// resident server process per disk.
func New(os *chrysalis.OS, diskNodes []int, cfg DiskConfig) (*Bridge, error) {
	if len(diskNodes) == 0 {
		return nil, errors.New("bridge: need at least one disk")
	}
	b := &Bridge{
		OS:            os,
		files:         make(map[string]*File),
		CPUPerBlockNs: 500 * sim.Microsecond,
	}
	for i, node := range diskNodes {
		b.Disks = append(b.Disks, NewDisk(node, cfg))
		q := os.NewDualQueue(node, nil)
		b.reqQs = append(b.reqQs, q)
		srv, err := os.MakeProcess(nil, fmt.Sprintf("bridge-lfs-%d", i), node, 16, func(self *chrysalis.Process) {
			for {
				d := q.Dequeue(self.P)
				if d == poison {
					return
				}
				req := b.reqs[d]
				b.free = append(b.free, int(d))
				req.run(self.P)
				// Flush the request's trailing lazy charges so the waiter
				// wakes at the request's true completion time.
				self.P.Sync()
				req.done.signal(self.P)
			}
		})
		if err != nil {
			return nil, err
		}
		b.servers = append(b.servers, srv)
	}
	return b, nil
}

// Shutdown stops all LFS servers.
func (b *Bridge) Shutdown(p *sim.Proc) {
	for _, q := range b.reqQs {
		q.Enqueue(p, poison)
	}
}

// submit hands work to LFS server d and returns its completion.
func (b *Bridge) submit(p *sim.Proc, d int, run func(p *sim.Proc)) *completion {
	c := newCompletion("bridge request")
	req := request{run: run, done: c}
	var slot int
	if n := len(b.free); n > 0 {
		slot = b.free[n-1]
		b.free = b.free[:n-1]
		b.reqs[slot] = req
	} else {
		slot = len(b.reqs)
		b.reqs = append(b.reqs, req)
	}
	b.reqQs[d].Enqueue(p, uint32(slot))
	return c
}

// Errors.
var (
	ErrNoFile = errors.New("bridge: no such file")
	ErrExists = errors.New("bridge: file exists")
)

// Create makes an empty file.
func (b *Bridge) Create(name string) (*File, error) {
	if _, ok := b.files[name]; ok {
		return nil, ErrExists
	}
	f := &File{Name: name}
	b.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (b *Bridge) Open(name string) (*File, error) {
	f, ok := b.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFile, name)
	}
	return f, nil
}

// Remove deletes a file.
func (b *Bridge) Remove(name string) error {
	if _, ok := b.files[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoFile, name)
	}
	delete(b.files, name)
	return nil
}

// diskFor returns the round-robin home for logical block i.
func (b *Bridge) diskFor(i int) int { return i % len(b.Disks) }

// Write appends data to the file through the conventional interface: the
// calling process drives every block transfer itself, one at a time — the
// serial path whose bottleneck Bridge's tools remove. Data is padded to a
// whole number of blocks.
func (b *Bridge) Write(p *sim.Proc, f *File, data []byte) {
	for off := 0; off < len(data); off += BlockBytes {
		end := off + BlockBytes
		if end > len(data) {
			end = len(data)
		}
		blk := make([]byte, BlockBytes)
		copy(blk, data[off:end])
		i := len(f.blocks)
		d := b.diskFor(i)
		f.blocks = append(f.blocks, blk)
		f.diskOf = append(f.diskOf, d)
		b.writeBlock(p, f, i)
	}
}

// writeBlock performs a timed single-block write via the owning LFS server.
func (b *Bridge) writeBlock(p *sim.Proc, f *File, i int) {
	d := f.diskOf[i]
	disk := b.Disks[d]
	c := b.submit(p, d, func(sp *sim.Proc) {
		// Data travels from the caller's node to the LFS node, then to disk.
		b.OS.M.BlockCopy(sp, p.Node, disk.Node, BlockBytes/4)
		sp.Advance(b.CPUPerBlockNs)
		sp.Sync()
		done := disk.Access(b.OS.M.E.Now(), 1, true)
		sp.Advance(done - b.OS.M.E.Now())
	})
	c.wait(p)
}

// Read returns logical block i through the conventional interface.
func (b *Bridge) Read(p *sim.Proc, f *File, i int) ([]byte, error) {
	if i < 0 || i >= len(f.blocks) {
		return nil, fmt.Errorf("bridge: block %d out of range for %q", i, f.Name)
	}
	d := f.diskOf[i]
	disk := b.Disks[d]
	c := b.submit(p, d, func(sp *sim.Proc) {
		sp.Sync()
		done := disk.Access(b.OS.M.E.Now(), 1, false)
		sp.Advance(done - b.OS.M.E.Now())
		sp.Advance(b.CPUPerBlockNs)
		b.OS.M.BlockCopy(sp, disk.Node, p.Node, BlockBytes/4)
	})
	c.wait(p)
	return f.blocks[i], nil
}

// ReadAll reads a whole file through the conventional interface (serially).
func (b *Bridge) ReadAll(p *sim.Proc, f *File) ([]byte, error) {
	var out []byte
	for i := 0; i < f.Blocks(); i++ {
		blk, err := b.Read(p, f, i)
		if err != nil {
			return nil, err
		}
		out = append(out, blk...)
	}
	return out, nil
}

// forEachDisk runs fn(d, blocks-of-f-on-d) on every LFS server in parallel
// and waits for all of them. This is the "export code to the processors
// managing the data" pattern.
func (b *Bridge) forEachDisk(p *sim.Proc, f *File, fn func(sp *sim.Proc, d int, blocks []int)) {
	perDisk := make([][]int, len(b.Disks))
	for i, d := range f.diskOf {
		perDisk[d] = append(perDisk[d], i)
	}
	comps := make([]*completion, 0, len(b.Disks))
	for d := range b.Disks {
		d := d
		if len(perDisk[d]) == 0 {
			continue
		}
		comps = append(comps, b.submit(p, d, func(sp *sim.Proc) {
			fn(sp, d, perDisk[d])
		}))
	}
	for _, c := range comps {
		c.wait(p)
	}
}

// Copy duplicates src into a new file dst using the parallel tool: each LFS
// copies its own blocks disk-locally, so D disks work concurrently.
func (b *Bridge) Copy(p *sim.Proc, src *File, dstName string) (*File, error) {
	dst, err := b.Create(dstName)
	if err != nil {
		return nil, err
	}
	dst.blocks = make([][]byte, src.Blocks())
	dst.diskOf = append([]int(nil), src.diskOf...)
	b.forEachDisk(p, src, func(sp *sim.Proc, d int, blocks []int) {
		disk := b.Disks[d]
		for _, i := range blocks {
			sp.Sync()
			done := disk.Access(b.OS.M.E.Now(), 1, false)
			sp.Advance(done - b.OS.M.E.Now())
			sp.Advance(b.CPUPerBlockNs)
			blk := make([]byte, BlockBytes)
			copy(blk, src.blocks[i])
			dst.blocks[i] = blk
			sp.Sync()
			done = disk.Access(b.OS.M.E.Now(), 1, true)
			sp.Advance(done - b.OS.M.E.Now())
		}
	})
	return dst, nil
}

// Match is one search hit.
type Match struct {
	Block  int
	Offset int
}

// Search scans the file for needle with the parallel tool and returns all
// within-block matches in block order.
func (b *Bridge) Search(p *sim.Proc, f *File, needle []byte) []Match {
	var all []Match
	b.forEachDisk(p, f, func(sp *sim.Proc, d int, blocks []int) {
		disk := b.Disks[d]
		for _, i := range blocks {
			sp.Sync()
			done := disk.Access(b.OS.M.E.Now(), 1, false)
			sp.Advance(done - b.OS.M.E.Now())
			// Scanning costs ~1 int op per 4 bytes.
			b.OS.M.IntOps(sp, BlockBytes/4)
			for off := 0; ; {
				j := bytes.Index(f.blocks[i][off:], needle)
				if j < 0 {
					break
				}
				all = append(all, Match{Block: i, Offset: off + j})
				off += j + 1
			}
		}
	})
	sort.Slice(all, func(x, y int) bool {
		if all[x].Block != all[y].Block {
			return all[x].Block < all[y].Block
		}
		return all[x].Offset < all[y].Offset
	})
	return all
}

// Compare checks two equally-interleaved files for equality with the
// parallel tool; it returns the logical indices of differing blocks.
func (b *Bridge) Compare(p *sim.Proc, f, g *File) ([]int, error) {
	if f.Blocks() != g.Blocks() {
		return nil, errors.New("bridge: compare of files with different sizes")
	}
	var diffs []int
	b.forEachDisk(p, f, func(sp *sim.Proc, d int, blocks []int) {
		disk := b.Disks[d]
		for _, i := range blocks {
			nAccesses := 1
			if g.diskOf[i] == d {
				nAccesses = 2 // both copies local: one combined positioning
			}
			sp.Sync()
			done := disk.Access(b.OS.M.E.Now(), nAccesses, false)
			sp.Advance(done - b.OS.M.E.Now())
			if g.diskOf[i] != d {
				gd := b.Disks[g.diskOf[i]]
				sp.Sync()
				done := gd.Access(b.OS.M.E.Now(), 1, false)
				sp.Advance(done - b.OS.M.E.Now())
				b.OS.M.BlockCopy(sp, gd.Node, disk.Node, BlockBytes/4)
			}
			b.OS.M.IntOps(sp, BlockBytes/4)
			if !bytes.Equal(f.blocks[i], g.blocks[i]) {
				diffs = append(diffs, i)
			}
		}
	})
	sort.Ints(diffs)
	return diffs, nil
}
