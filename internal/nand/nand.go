// Package nand models NAND flash media at the die level (paper §2.1).
//
// A Die holds planes of blocks of pages of sectors plus per-page
// out-of-band (OOB) bytes, and enforces the three fundamental programming
// constraints: whole-page programs, sequential programs within a block, and
// erase-before-rewrite. It also models multi-level-cell page pairing,
// program/erase wear, bad blocks, and injectable failure modes (§2.2).
//
// Timing is not modelled here; the device model (internal/ocssd) charges
// virtual time for operations and uses Die.WearFactor to age access times.
package nand

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Errors returned by media operations. Device-level code distinguishes them
// to drive the paper's error-handling paths (§4.2.3).
var (
	ErrBadBlock       = errors.New("nand: block is marked bad")
	ErrNonSequential  = errors.New("nand: program must be sequential within block")
	ErrNotErased      = errors.New("nand: program to non-erased page")
	ErrWriteFail      = errors.New("nand: program failed")
	ErrEraseFail      = errors.New("nand: erase failed")
	ErrReadFail       = errors.New("nand: uncorrectable read (ECC exhausted)")
	ErrUnwritten      = errors.New("nand: read of unwritten page")
	ErrPairIncomplete = errors.New("nand: lower page unreadable before paired upper page is programmed")
	ErrWornOut        = errors.New("nand: block exceeded program/erase cycle limit")
	ErrOOBTooLarge    = errors.New("nand: oob larger than page OOB area")
)

// Dims gives the media dimensions of one die.
type Dims struct {
	Planes         int
	BlocksPerPlane int
	PagesPerBlock  int
	SectorsPerPage int
	SectorSize     int
	OOBPerPage     int
}

// PageBytes returns the page payload size.
func (d Dims) PageBytes() int { return d.SectorsPerPage * d.SectorSize }

// Config controls media behaviour beyond the geometry.
type Config struct {
	// PECycleLimit is the number of program/erase cycles a block endures
	// before erases start failing (MLC is ~3000; paper §2.1).
	PECycleLimit int
	// WriteFailProb is the probability a program fails (block must then be
	// recovered and retired by the host, §4.2.3).
	WriteFailProb float64
	// EraseFailProb is the probability an erase fails (block marked bad).
	EraseFailProb float64
	// ReadFailProb is the probability a read is uncorrectable after the
	// device exhausted ECC and threshold tuning.
	ReadFailProb float64
	// InitialBadBlockProb marks factory bad blocks.
	InitialBadBlockProb float64
	// StrictPairRead enforces the multi-level-cell rule that a lower page
	// may not be read until its paired upper page is programmed (§2.2).
	StrictPairRead bool
	// PairStride is the distance from a lower page to its paired upper
	// page. Pages alternate in runs of PairStride lowers then PairStride
	// uppers; 0 disables pairing (SLC-like).
	PairStride int
	// WearLatencyFactor scales access latency as blocks age: factor =
	// 1 + WearLatencyFactor * pe/PECycleLimit (paper §2.3, lesson 4).
	WearLatencyFactor float64

	// ---- Raw bit-error-rate model (all zero = off, media never degrades
	// beyond the injected coin flips above). The raw BER of a page is
	//
	//   rawBER = BERWearCoeff      * (pe/PECycleLimit)^2
	//          + BERRetentionCoeff * retentionSeconds * RetentionAccel
	//          + BERDisturbCoeff   * blockReadsSinceErase
	//
	// deterministic in the die state — no random draws — so enabling the
	// model perturbs nothing else and stays byte-identical across engines.

	// BERWearCoeff scales the P/E-cycle wear term (quadratic in the
	// consumed fraction of PECycleLimit).
	BERWearCoeff float64
	// BERRetentionCoeff scales the charge-leak term, per second of virtual
	// time since the block was first programmed after its last erase.
	BERRetentionCoeff float64
	// RetentionAccel multiplies the retention clock (bake-oven style
	// acceleration so lifetime experiments age retention in simulated
	// milliseconds instead of months). 0 disables the retention term.
	RetentionAccel float64
	// BERDisturbCoeff scales the read-disturb term, per read issued to the
	// block since its last erase.
	BERDisturbCoeff float64

	// ---- ECC and read-retry (§2.2: the device retries reads at shifted
	// threshold voltages before declaring an uncorrectable error).

	// ECCBER is the raw BER the sector ECC corrects with zero retries.
	ECCBER float64
	// ReadRetryStep is the additional raw BER each retry tier recovers;
	// a read needs ceil((rawBER-ECCBER)/ReadRetryStep) tiers.
	ReadRetryStep float64
	// ReadRetryTiers is the number of retry tiers available before the
	// read fails with ErrReadFail.
	ReadRetryTiers int

	// GrownBadProb scales the chance an erase grows a bad block as wear
	// accumulates: p = GrownBadProb * (pe/PECycleLimit)^4, so young blocks
	// almost never fail and blocks near end of life fail often (§2.2).
	GrownBadProb float64
}

// DefaultConfig returns an MLC-like configuration matching the paper's
// evaluation device.
func DefaultConfig() Config {
	return Config{
		PECycleLimit:      3000,
		WriteFailProb:     0,
		EraseFailProb:     0,
		ReadFailProb:      0,
		StrictPairRead:    false,
		PairStride:        2,
		WearLatencyFactor: 0.3,
	}
}

type block struct {
	writePtr int // pages [0, writePtr) are programmed
	pe       int
	bad      bool
	// pages is the block's page table, allocated the first time a program
	// carries bytes (payload or OOB) or a page loses its charge, and
	// cleared, not freed, at erase. Synthetic writes (nil payload, no OOB)
	// track state via writePtr alone, keeping large simulated devices
	// cheap in host memory.
	pages []pageSlot
	// oob holds the OOB bytes of every page of the current erase cycle,
	// page i at [i*OOBPerPage, i*OOBPerPage+pages[i].oobLen): one slab per
	// block cycle instead of one allocation per page.
	oob []byte
	// programNS is the virtual time the block was first programmed after
	// its last erase (retention clock origin); reads counts page reads
	// since the last erase (read disturb).
	programNS int64
	reads     int
}

// pageSlot is one page's entry in its block's page table.
//
// Stored bytes are stable: a program always installs fresh memory (the
// adopted payload buffer, a fresh region of the cycle's OOB slab) and
// erase drops that memory rather than recycling it, so a reader still
// holding a slice from an earlier read sees the content it read even
// after the page is erased and reprogrammed.
type pageSlot struct {
	// data is the page payload, adopted from Program; nil for pages
	// programmed without a payload (readers treat that as zeros).
	data []byte
	// oobLen is the length of the page's OOB in the block's slab; 0 when
	// the page was programmed without OOB.
	oobLen int32
	// corrupt marks a page whose charge was destroyed by a failed program
	// (the page itself and, on MLC, the paired lower page).
	corrupt bool
}

// Die is one NAND die: the unit of parallelism (one I/O at a time).
type Die struct {
	dims Dims
	cfg  Config
	rng  *rand.Rand
	// planes[p][b]
	planes [][]block
	// nowFn, when set, supplies virtual time for the retention clock (the
	// device model wires it to its simulation environment).
	nowFn func() int64

	// Stats counts media operations for utilization reporting.
	Stats Stats
}

// Stats counts raw media operations executed by a die.
type Stats struct {
	PageReads    int64
	PagePrograms int64
	BlockErases  int64
	ReadFails    int64
	ProgramFails int64
	EraseFails   int64
	// ReadRetries totals retry tiers charged across all reads; GrownBad
	// counts blocks that failed an erase through the wear-driven grown-bad
	// model; PairCorruptions counts lower pages destroyed by a failed
	// program of their paired upper page.
	ReadRetries     int64
	GrownBad        int64
	PairCorruptions int64
}

// NewDie builds a die with the given dimensions and behaviour. The rng seeds
// failure injection and must not be shared across goroutines.
func NewDie(dims Dims, cfg Config, rng *rand.Rand) *Die {
	d := &Die{dims: dims, cfg: cfg, rng: rng}
	d.planes = make([][]block, dims.Planes)
	for p := range d.planes {
		d.planes[p] = make([]block, dims.BlocksPerPlane)
	}
	if cfg.InitialBadBlockProb > 0 {
		for p := range d.planes {
			for b := range d.planes[p] {
				if rng.Float64() < cfg.InitialBadBlockProb {
					d.planes[p][b].bad = true
				}
			}
		}
	}
	return d
}

// Dims returns the die dimensions.
func (d *Die) Dims() Dims { return d.dims }

// SetNow installs the virtual-time source for the retention clock. Without
// it (or with RetentionAccel = 0) the retention BER term is disabled.
func (d *Die) SetNow(fn func() int64) { d.nowFn = fn }

func (d *Die) blk(plane, blockIdx int) (*block, error) {
	if plane < 0 || plane >= d.dims.Planes || blockIdx < 0 || blockIdx >= d.dims.BlocksPerPlane {
		return nil, fmt.Errorf("nand: address out of range plane=%d block=%d", plane, blockIdx)
	}
	return &d.planes[plane][blockIdx], nil
}

// isLower reports whether page is a lower page whose pair is page+stride.
func (d *Die) isLower(page int) bool {
	s := d.cfg.PairStride
	if s <= 0 {
		return false
	}
	return (page/s)%2 == 0 && page+s < d.dims.PagesPerBlock
}

// PairOf returns the paired upper page for a lower page, or -1 when page has
// no pair (uppers and unpaired tail pages).
func (d *Die) PairOf(page int) int {
	if d.isLower(page) {
		return page + d.cfg.PairStride
	}
	return -1
}

// lowerOf returns the paired lower page for an upper page, or -1 when page
// is not an upper page.
func (d *Die) lowerOf(page int) int {
	s := d.cfg.PairStride
	if s <= 0 || (page/s)%2 == 0 {
		return -1
	}
	return page - s
}

// slot returns a page's entry in its block's page table, allocating the
// table on first use.
func (d *Die) slot(b *block, page int) *pageSlot {
	if b.pages == nil {
		b.pages = make([]pageSlot, d.dims.PagesPerBlock)
	}
	return &b.pages[page]
}

// loseCharge destroys a programmed page's content: its payload and OOB are
// dropped and subsequent reads fail uncorrectably.
func (d *Die) loseCharge(b *block, page int) {
	*d.slot(b, page) = pageSlot{corrupt: true}
}

// Program writes one full page (payload data plus oob) at the given address.
// data may be nil for synthetic workloads (reads then return zeros). A
// non-nil data buffer is adopted, not copied: it becomes the stored page,
// so the caller must hand over a freshly allocated buffer and never write
// to it again. oob is copied. The sequential-in-block and
// erase-before-write constraints are enforced.
// A failed program leaves the page unreadable and the write pointer advanced,
// matching real media where the block content is suspect after failure.
func (d *Die) Program(plane, blockIdx, page int, data, oob []byte) error {
	b, err := d.blk(plane, blockIdx)
	if err != nil {
		return err
	}
	if b.bad {
		return ErrBadBlock
	}
	if page < b.writePtr {
		return ErrNotErased
	}
	if page != b.writePtr {
		return ErrNonSequential
	}
	if data != nil && len(data) != d.dims.PageBytes() {
		return fmt.Errorf("nand: program payload %dB, want full page %dB", len(data), d.dims.PageBytes())
	}
	if len(oob) > d.dims.OOBPerPage {
		return ErrOOBTooLarge
	}
	d.Stats.PagePrograms++
	if b.writePtr == 0 && d.nowFn != nil {
		b.programNS = d.nowFn()
	}
	b.writePtr++
	if d.cfg.WriteFailProb > 0 && d.rng.Float64() < d.cfg.WriteFailProb {
		d.Stats.ProgramFails++
		// Content of the failed page is lost; on MLC (strict pairing), a
		// failed upper-page program also destroys the charge of its
		// already-programmed lower pair (§2.2).
		d.loseCharge(b, page)
		if d.cfg.StrictPairRead {
			if lower := d.lowerOf(page); lower >= 0 && lower < b.writePtr {
				d.loseCharge(b, lower)
				d.Stats.PairCorruptions++
			}
		}
		return ErrWriteFail
	}
	if data == nil && len(oob) == 0 {
		return nil
	}
	slot := d.slot(b, page)
	slot.data = data
	if len(oob) > 0 {
		ob := d.dims.OOBPerPage
		if b.oob == nil {
			b.oob = make([]byte, ob*d.dims.PagesPerBlock)
		}
		copy(b.oob[page*ob:], oob)
		slot.oobLen = int32(len(oob))
	}
	return nil
}

// Read returns the payload and OOB of a programmed page. Unwritten pages
// return ErrUnwritten. Under StrictPairRead, a lower page in a still-open
// block whose upper pair is unprogrammed returns ErrPairIncomplete.
// The returned slices are the stored bytes themselves and must be treated
// as read-only; they stay valid (with their content at read time) even
// across a later erase or reprogram of the page, because programming
// always installs fresh memory and erase drops it (see pageSlot). Pages
// programmed with an unspecified (nil) payload return nil data; readers
// treat that as zeros, and pages programmed without OOB return nil oob.
func (d *Die) Read(plane, blockIdx, page int) (data, oob []byte, err error) {
	data, oob, _, err = d.ReadRetry(plane, blockIdx, page)
	return data, oob, err
}

// ReadRetry is Read plus the tiered read-retry model: it additionally
// reports how many retry tiers (threshold-voltage shifts) the device needed
// to correct the page's raw bit-error rate. retries is 0 while the raw BER
// sits within plain ECC reach and grows as wear, retention, and read
// disturb push it up; once the required tier count exceeds
// Config.ReadRetryTiers the read is uncorrectable (ErrReadFail). The device
// model charges extra latency per tier and flags deep-tier reads for host
// relocation.
func (d *Die) ReadRetry(plane, blockIdx, page int) (data, oob []byte, retries int, err error) {
	b, err := d.blk(plane, blockIdx)
	if err != nil {
		return nil, nil, 0, err
	}
	if page < 0 || page >= d.dims.PagesPerBlock {
		return nil, nil, 0, fmt.Errorf("nand: page %d out of range", page)
	}
	if b.bad {
		return nil, nil, 0, ErrBadBlock
	}
	if page >= b.writePtr {
		return nil, nil, 0, ErrUnwritten
	}
	if d.cfg.StrictPairRead {
		if pair := d.PairOf(page); pair >= 0 && pair >= b.writePtr {
			return nil, nil, 0, ErrPairIncomplete
		}
	}
	d.Stats.PageReads++
	b.reads++
	if d.cfg.ReadFailProb > 0 && d.rng.Float64() < d.cfg.ReadFailProb {
		d.Stats.ReadFails++
		return nil, nil, 0, ErrReadFail
	}
	var slot pageSlot
	if b.pages != nil {
		slot = b.pages[page]
	}
	if slot.corrupt {
		d.Stats.ReadFails++
		return nil, nil, 0, ErrReadFail
	}
	if raw := d.rawBER(b); raw > d.cfg.ECCBER {
		need := d.cfg.ReadRetryTiers + 1 // no tiers configured: uncorrectable
		if d.cfg.ReadRetryStep > 0 {
			need = int(math.Ceil((raw - d.cfg.ECCBER) / d.cfg.ReadRetryStep))
		}
		if need > d.cfg.ReadRetryTiers {
			d.Stats.ReadFails++
			d.Stats.ReadRetries += int64(d.cfg.ReadRetryTiers)
			return nil, nil, d.cfg.ReadRetryTiers, ErrReadFail
		}
		retries = need
		d.Stats.ReadRetries += int64(need)
	}
	if slot.oobLen > 0 {
		lo := page * d.dims.OOBPerPage
		hi := lo + int(slot.oobLen)
		oob = b.oob[lo:hi:hi]
	}
	return slot.data, oob, retries, nil
}

// rawBER evaluates the deterministic raw bit-error-rate model for a block:
// quadratic P/E wear, linear (accelerated) retention since first program,
// linear read disturb. All terms are off by default.
func (d *Die) rawBER(b *block) float64 {
	var ber float64
	if d.cfg.BERWearCoeff > 0 && d.cfg.PECycleLimit > 0 {
		r := float64(b.pe) / float64(d.cfg.PECycleLimit)
		ber += d.cfg.BERWearCoeff * r * r
	}
	if d.cfg.BERRetentionCoeff > 0 && d.cfg.RetentionAccel > 0 && d.nowFn != nil {
		if age := float64(d.nowFn()-b.programNS) / 1e9; age > 0 {
			ber += d.cfg.BERRetentionCoeff * d.cfg.RetentionAccel * age
		}
	}
	if d.cfg.BERDisturbCoeff > 0 {
		ber += d.cfg.BERDisturbCoeff * float64(b.reads)
	}
	return ber
}

// Erase wipes a block and charges one PE cycle. Erasing a worn-out block
// returns ErrWornOut; injected failures return ErrEraseFail. In both cases
// the block is marked bad (paper §2.2: no retry on erase failure).
func (d *Die) Erase(plane, blockIdx int) error {
	b, err := d.blk(plane, blockIdx)
	if err != nil {
		return err
	}
	if b.bad {
		return ErrBadBlock
	}
	d.Stats.BlockErases++
	b.pe++
	if d.cfg.PECycleLimit > 0 && b.pe > d.cfg.PECycleLimit {
		d.Stats.EraseFails++
		b.bad = true
		return ErrWornOut
	}
	if d.cfg.EraseFailProb > 0 && d.rng.Float64() < d.cfg.EraseFailProb {
		d.Stats.EraseFails++
		b.bad = true
		return ErrEraseFail
	}
	// Grown bad blocks: the erase-failure probability climbs steeply as the
	// block approaches its cycle limit (quartic in consumed life).
	if d.cfg.GrownBadProb > 0 && d.cfg.PECycleLimit > 0 {
		r := float64(b.pe) / float64(d.cfg.PECycleLimit)
		if d.rng.Float64() < d.cfg.GrownBadProb*r*r*r*r {
			d.Stats.EraseFails++
			d.Stats.GrownBad++
			b.bad = true
			return ErrEraseFail
		}
	}
	b.writePtr = 0
	// Keep the page table across cycles but drop the stored bytes (not
	// recycled) so in-flight readers of pre-erase pages stay safe.
	clear(b.pages)
	b.oob = nil
	b.programNS = 0
	b.reads = 0
	return nil
}

// MarkBad retires a block (host decision after a write failure, §4.2.3).
func (d *Die) MarkBad(plane, blockIdx int) error {
	b, err := d.blk(plane, blockIdx)
	if err != nil {
		return err
	}
	b.bad = true
	return nil
}

// IsBad reports whether a block is retired.
func (d *Die) IsBad(plane, blockIdx int) bool {
	b, err := d.blk(plane, blockIdx)
	return err == nil && b.bad
}

// WritePtr returns the next page to be programmed in a block; pages below it
// are programmed.
func (d *Die) WritePtr(plane, blockIdx int) int {
	b, err := d.blk(plane, blockIdx)
	if err != nil {
		return 0
	}
	return b.writePtr
}

// PECycles returns the block's accumulated program/erase cycles.
func (d *Die) PECycles(plane, blockIdx int) int {
	b, err := d.blk(plane, blockIdx)
	if err != nil {
		return 0
	}
	return b.pe
}

// BlockReads returns the reads issued to a block since its last erase —
// its read-disturb pressure.
func (d *Die) BlockReads(plane, blockIdx int) int {
	b, err := d.blk(plane, blockIdx)
	if err != nil {
		return 0
	}
	return b.reads
}

// WearSummary aggregates wear across the die: total and maximum per-block
// P/E cycles plus the bad-block count. Inspection tooling uses it for
// per-tenant wear accounting.
func (d *Die) WearSummary() (totalPE int64, maxPE, bad int) {
	for p := range d.planes {
		for i := range d.planes[p] {
			b := &d.planes[p][i]
			totalPE += int64(b.pe)
			if b.pe > maxPE {
				maxPE = b.pe
			}
			if b.bad {
				bad++
			}
		}
	}
	return totalPE, maxPE, bad
}

// WearFactor returns the access-latency multiplier for a block given its
// age (>= 1.0). The device model multiplies op latencies by it.
func (d *Die) WearFactor(plane, blockIdx int) float64 {
	if d.cfg.WearLatencyFactor <= 0 || d.cfg.PECycleLimit <= 0 {
		return 1
	}
	b, err := d.blk(plane, blockIdx)
	if err != nil {
		return 1
	}
	return 1 + d.cfg.WearLatencyFactor*float64(b.pe)/float64(d.cfg.PECycleLimit)
}

// Config returns the die's media configuration.
func (d *Die) Config() Config { return d.cfg }
