// Package semantic implements StorM's semantics reconstruction (Section
// III-C): middle-boxes observe only low-level block accesses (disk sectors,
// raw data, inode metadata), while tenants operate on files and
// directories. A Reconstructor starts from the initial high-level system
// view generated when the volume is attached (extfs.View, the dumpe2fs
// analogue), tracks every metadata access to keep the view current, and
// converts block-level reads and writes into high-level file operations —
// the Classification and Update phases of the paper's monitoring engine.
package semantic

import (
	"fmt"
	"path"
	"strings"
	"sync"

	"repro/internal/extfs"
)

// EventType classifies a reconstructed operation.
type EventType int

// Event types.
const (
	// EvRead / EvWrite are data accesses attributed to a file (or to a
	// directory's entries block, logged as "<dir>/.").
	EvRead EventType = iota + 1
	EvWrite
	// EvMetaRead / EvMetaWrite are metadata accesses (inode tables,
	// bitmaps, superblock).
	EvMetaRead
	EvMetaWrite
	// EvCreate, EvDelete, EvRename are recovered file-level operations.
	EvCreate
	EvDelete
	EvRename
)

// String renders the event type as it appears in the access log.
func (t EventType) String() string {
	switch t {
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvMetaRead:
		return "read"
	case EvMetaWrite:
		return "write"
	case EvCreate:
		return "create"
	case EvDelete:
		return "delete"
	case EvRename:
		return "rename"
	default:
		return "op(?)"
	}
}

// Event is one reconstructed high-level operation.
type Event struct {
	// Seq is the access sequence number the event was recovered from.
	Seq uint64
	// Type classifies the operation.
	Type EventType
	// Path is the file or directory involved. Directory-entry accesses use
	// the paper's "<dir>/." notation; metadata accesses use "META:
	// <detail>".
	Path string
	// Size is the number of bytes accessed (0 for pure namespace events).
	Size int
	// OldPath carries the source of a rename.
	OldPath string
}

// String renders the event as one Table I row.
func (e Event) String() string {
	if e.Type == EvRename {
		return fmt.Sprintf("%-6d %-6s %s -> %s", e.Seq, e.Type, e.OldPath, e.Path)
	}
	if e.Size > 0 {
		return fmt.Sprintf("%-6d %-6s %s %d", e.Seq, e.Type, e.Path, e.Size)
	}
	return fmt.Sprintf("%-6d %-6s %s", e.Seq, e.Type, e.Path)
}

// inoMeta is the reconstructor's live knowledge of one inode.
type inoMeta struct {
	ino    uint32
	typ    extfs.FileType
	path   string
	size   uint64
	blocks map[uint64]bool
}

// Reconstructor converts block accesses into file-level events.
type Reconstructor struct {
	mu   sync.Mutex
	view *extfs.View
	sb   extfs.Superblock
	geom []extfs.GroupLayout

	seq uint64

	inodes     map[uint32]*inoMeta
	blockOwner map[uint64]uint32            // data block -> ino
	dirEntries map[uint32]map[string]uint32 // dir ino -> name -> child ino
	// pendingData holds writes to blocks not yet attributed to a file;
	// they are emitted once a metadata update maps the block.
	pendingData map[uint64]pendingWrite
	// orphaned tracks names removed from directories whose inodes are
	// still allocated (rename-in-flight or deletion-in-progress).
	orphaned map[uint32]string
	// ptrBlocks tracks indirect pointer blocks by owning inode.
	ptrBlocks map[uint64]ptrRef
	// dirShadow holds the last seen entry set per directory block.
	dirShadow map[uint64]map[string]uint32
	// currentDirBlock is the block being diffed by updateFromDirBlock.
	currentDirBlock uint64

	events []Event
	onEvt  func(Event)
}

type pendingWrite struct {
	seq  uint64
	size int
}

// New builds a reconstructor from the initial system view.
func New(view *extfs.View) *Reconstructor {
	r := &Reconstructor{
		view: view,
		sb: extfs.Superblock{
			BlockSize:      view.BlockSize,
			BlocksCount:    view.BlocksCount,
			InodesPerGroup: view.InodesPerGroup,
			GroupCount:     uint32(len(view.Groups)),
		},
		geom:        view.Groups,
		inodes:      make(map[uint32]*inoMeta),
		blockOwner:  make(map[uint64]uint32),
		dirEntries:  make(map[uint32]map[string]uint32),
		pendingData: make(map[uint64]pendingWrite),
		orphaned:    make(map[uint32]string),
	}
	for _, f := range view.Files {
		m := &inoMeta{
			ino:    f.Ino,
			typ:    f.Type,
			path:   f.Path,
			size:   f.Size,
			blocks: make(map[uint64]bool, len(f.Blocks)),
		}
		for _, b := range f.Blocks {
			m.blocks[b] = true
			r.blockOwner[b] = f.Ino
		}
		r.inodes[f.Ino] = m
		if f.Type == extfs.TypeDir {
			r.dirEntries[f.Ino] = make(map[string]uint32)
		}
	}
	// Populate directory contents from the path tree.
	for _, f := range view.Files {
		if f.Path == "/" {
			continue
		}
		dir := path.Dir(f.Path)
		name := path.Base(f.Path)
		if parent := r.inodeByPath(dir); parent != nil {
			r.dirEntries[parent.ino][name] = f.Ino
		}
	}
	return r
}

// OnEvent registers a callback invoked (without the lock held) for every
// reconstructed event, in order.
func (r *Reconstructor) OnEvent(fn func(Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvt = fn
}

// Events returns the retained event log.
func (r *Reconstructor) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// PathOf resolves a data block to its owning file path, exercising the
// fast lookup table (the paper's hash table for IDS-style queries).
func (r *Reconstructor) PathOf(fsBlock uint64) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ino, ok := r.blockOwner[fsBlock]
	if !ok {
		return "", false
	}
	m, ok := r.inodes[ino]
	if !ok || m.path == "" {
		return "", false
	}
	return m.path, true
}

func (r *Reconstructor) inodeByPath(p string) *inoMeta {
	for _, m := range r.inodes {
		if m.path == p {
			return m
		}
	}
	return nil
}

// OnAccess feeds one block-level access: write says the direction,
// sectorLBA is the device sector, and data is the transferred payload
// (required for writes so metadata updates can be parsed; may be nil for
// reads, in which case length gives the size).
func (r *Reconstructor) OnAccess(write bool, sectorLBA uint64, data []byte, length int) []Event {
	r.mu.Lock()
	if data != nil {
		length = len(data)
	}
	r.seq++
	seq := r.seq
	spb := uint64(r.view.SectorsPerBlock)
	bs := uint64(r.view.BlockSize)
	firstBlock := sectorLBA / spb

	// Split the access into fs blocks.
	nBlocks := (uint64(length) + bs - 1) / bs
	if nBlocks == 0 {
		nBlocks = 1
	}
	var out []Event
	emit := func(e Event) {
		e.Seq = seq
		out = append(out, e)
	}
	// Aggregate contiguous same-file data accesses into one event.
	var agg *Event
	flushAgg := func() {
		if agg != nil {
			emit(*agg)
			agg = nil
		}
	}
	for i := uint64(0); i < nBlocks; i++ {
		blk := firstBlock + i
		off := int(i * bs)
		end := off + int(bs)
		if end > length {
			end = length
		}
		var chunk []byte
		if data != nil && off < len(data) {
			chunk = data[off:min(end, len(data))]
		}
		evs := r.classifyBlock(write, blk, chunk, end-off)
		for _, e := range evs {
			if (e.Type == EvRead || e.Type == EvWrite) && agg != nil && agg.Path == e.Path && agg.Type == e.Type {
				agg.Size += e.Size
				continue
			}
			if e.Type == EvRead || e.Type == EvWrite {
				flushAgg()
				cp := e
				agg = &cp
				continue
			}
			flushAgg()
			emit(e)
		}
	}
	flushAgg()

	r.events = append(r.events, out...)
	cb := r.onEvt
	r.mu.Unlock()
	if cb != nil {
		for _, e := range out {
			cb(e)
		}
	}
	return out
}

// classifyBlock is the Classification phase for one fs block.
func (r *Reconstructor) classifyBlock(write bool, blk uint64, data []byte, size int) []Event {
	class, group := r.sb.Classify(blk, r.geom)
	switch class {
	case extfs.ClassSuperblock:
		if write && data != nil {
			r.learnSuperblock(data)
		}
		return []Event{metaEvent(write, "superblock", size)}
	case extfs.ClassBlockBitmap:
		return []Event{metaEvent(write, fmt.Sprintf("block_bitmap_group_%d", group), size)}
	case extfs.ClassInodeBitmap:
		return []Event{metaEvent(write, fmt.Sprintf("inode_bitmap_group_%d", group), size)}
	case extfs.ClassInodeTable:
		if write && data != nil {
			evs := r.updateFromInodeTable(blk, group, data)
			evs = append(evs, metaEvent(true, fmt.Sprintf("inode_group_%d", group), size))
			return evs
		}
		return []Event{metaEvent(write, fmt.Sprintf("inode_group_%d", group), size)}
	default:
		return r.dataAccess(write, blk, data, size)
	}
}

func metaEvent(write bool, detail string, size int) Event {
	t := EvMetaRead
	if write {
		t = EvMetaWrite
	}
	return Event{Type: t, Path: "META: " + detail, Size: size}
}

// dataAccess attributes a data-block access to a file or directory.
func (r *Reconstructor) dataAccess(write bool, blk uint64, data []byte, size int) []Event {
	r.ensurePtrMaps()
	// Indirect pointer blocks masquerade as data; interpret their writes
	// as metadata updates.
	if _, isPtr := r.ptrBlocks[blk]; isPtr {
		var evs []Event
		if write {
			evs, _ = r.handlePtrBlock(blk, data)
		}
		return append(evs, metaEvent(write, "indirect_block", size))
	}
	ino, known := r.blockOwner[blk]
	if !known {
		if write {
			// Data written ahead of its metadata update: hold it.
			r.pendingData[blk] = pendingWrite{seq: r.seq, size: size}
			return nil
		}
		return []Event{{Type: EvRead, Path: fmt.Sprintf("block_%d", blk), Size: size}}
	}
	m := r.inodes[ino]
	if m == nil {
		return nil
	}
	if m.typ == extfs.TypeDir {
		var evs []Event
		if write && data != nil {
			r.currentDirBlock = blk
			evs = r.updateFromDirBlock(m, data)
		}
		t := EvRead
		if write {
			t = EvWrite
		}
		evs = append(evs, Event{Type: t, Path: dirDot(m.path), Size: size})
		return evs
	}
	t := EvRead
	if write {
		t = EvWrite
	}
	p := m.path
	if p == "" {
		p = fmt.Sprintf("inode_%d", ino)
	}
	return []Event{{Type: t, Path: p, Size: size}}
}

func dirDot(p string) string {
	if strings.HasSuffix(p, "/") {
		return p + "."
	}
	return p + "/."
}
