package machine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"compcache/internal/fault"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

// fillHalfRandom gives every page of the space a random first half, a zero
// second half and a tag word at offset 0: pages compress to about half a
// page with every codec, so a working set a few times memory overflows the
// compression cache into the backing store.
func fillHalfRandom(s *Space, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	page := make([]byte, 4096)
	for p := int32(0); p < s.Pages(); p++ {
		rng.Read(page[:2048])
		s.Write(int64(p)*4096, page)
		s.WriteWord(int64(p)*4096, imageTag(p))
	}
}

func imageTag(p int32) uint64 { return 0x1a9e<<32 ^ uint64(p)*0x9e3779b9 }

// imageChecker is the codec half of the image invariant, which
// CheckInvariants leaves out because it must not run codecs uncharged:
// every live image equals a fresh compression of its resident frame with
// the segment's codec. An image already checked against identical frame
// contents is not compressed again, so checking after every touch costs
// one compression per captured image.
type imageChecker struct {
	checked map[swap.PageKey][2][]byte // image, frame when last verified
	scratch []byte
	perSeg  map[int32]int // images verified, by segment
}

func newImageChecker() *imageChecker {
	return &imageChecker{checked: make(map[swap.PageKey][2][]byte), perSeg: make(map[int32]int)}
}

func (c *imageChecker) check(m *Machine) error {
	for _, seg := range m.VM.Segments() {
		for i := int32(0); i < seg.NPages; i++ {
			p := seg.Page(i)
			img, ok := m.images[p.Key]
			if !ok {
				delete(c.checked, p.Key)
				continue
			}
			frame := m.Pool.Bytes(p.Frame)
			if prev, ok := c.checked[p.Key]; ok && bytes.Equal(prev[0], img) && bytes.Equal(prev[1], frame) {
				continue
			}
			c.scratch = m.codecFor(p.Key.Seg).Compress(c.scratch[:0], frame)
			if !bytes.Equal(c.scratch, img) {
				return fmt.Errorf("page %v: image (%d bytes) differs from a fresh compression (%d bytes)",
					p.Key, len(img), len(c.scratch))
			}
			c.checked[p.Key] = [2][]byte{append([]byte(nil), img...), append([]byte(nil), frame...)}
			c.perSeg[p.Key.Seg]++
		}
	}
	return nil
}

// imageFaults injects, from faultWindow on (so a working set can be
// populated first), the fault sweep's survivable classes at one rate:
// write errors, latency spikes and cache-fragment corruption. A corrupt
// fragment must never become an image; its recovery from the backing store
// captures the clean copy instead. Read errors and backing-store
// corruption are left out: on a read-mostly run they end the machine
// within a few dozen swap-ins, before any image is reused.
func imageFaults(rate float64) *fault.Config {
	if rate == 0 {
		return nil
	}
	return &fault.Config{
		Seed:                7,
		ActiveAfter:         faultWindow,
		WriteErrorRate:      rate,
		CacheCorruptionRate: rate,
		LatencySpikeRate:    math.Min(1, 50*rate),
		LatencySpike:        2 * time.Millisecond,
	}
}

// readMostly runs sequential and random read passes over the spaces, with
// one word write in sixteen, checking after every touch that the machine
// returns the last write, that CheckInvariants holds and that every image
// is the codec's output. It stops early, without error, once injected
// faults have killed the machine.
func readMostly(t *testing.T, m *Machine, spaces []*Space, touches int, seed int64) *imageChecker {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	want := make([][]uint64, len(spaces))
	for i, s := range spaces {
		want[i] = make([]uint64, s.Pages())
		for p := range want[i] {
			want[i][p] = imageTag(int32(p))
		}
	}
	ic := newImageChecker()
	for n := 0; n < touches; n++ {
		si := n % len(spaces)
		s := spaces[si]
		p := int32(n/len(spaces)) % s.Pages() // sequential sweeps defeat LRU
		if n%3 == 2 {
			p = int32(rng.Intn(int(s.Pages())))
		}
		off := int64(p) * 4096
		if rng.Intn(16) == 0 {
			want[si][p] = rng.Uint64()
			s.WriteWord(off, want[si][p])
		} else if got := s.ReadWord(off); got != want[si][p] && m.Err() == nil {
			t.Fatalf("touch %d: space %d page %d read %#x, want %#x", n, si, p, got, want[si][p])
		}
		if m.Err() != nil {
			if !fault.IsUnrecoverable(m.Err()) {
				t.Fatalf("touch %d: untyped machine error: %v", n, m.Err())
			}
			return ic
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("touch %d: %v", n, err)
		}
		if err := ic.check(m); err != nil {
			t.Fatalf("touch %d: %v", n, err)
		}
	}
	return ic
}

// TestCleanReevictionImageMatchesCodec is the differential test for image
// reuse: under read-mostly paging that overflows the cache into the
// backing store, every image the machine holds must equal what the codec
// would produce for the page now, and the image path must actually be
// taken. The baseline LFS machine runs no codec and must never hold one.
func TestCleanReevictionImageMatchesCodec(t *testing.T) {
	type variant struct {
		name     string
		cfg      Config
		segCodec string // codec of a second, NewSegmentCodec segment
	}
	var variants []variant
	for _, codec := range []string{"lzrw1", "lzss", "bdi", "fpc"} {
		cfg := Default(mb / 2).WithCC()
		cfg.CC.Codec = codec
		variants = append(variants, variant{name: "clustered/" + codec, cfg: cfg})
	}
	variants = append(variants,
		variant{name: "clustered/lzrw1+segment-bdi", cfg: Default(mb / 2).WithCC(), segCodec: "bdi"},
		variant{name: "lfs", cfg: Default(mb / 2).WithLFS(swap.LFSConfig{SegmentBytes: 8 * 4096, MaxSegments: 64})})

	for _, rate := range []float64{0, 1e-2} {
		for _, v := range variants {
			v := v
			t.Run(fmt.Sprintf("%s/rate=%g", v.name, rate), func(t *testing.T) {
				cfg := v.cfg
				cfg.Faults = imageFaults(rate)
				m := newMachine(t, cfg)
				spaces := []*Space{m.NewSegment("heap", 384*4096)}
				if v.segCodec != "" {
					s, err := m.NewSegmentCodec("other", 192*4096, v.segCodec)
					if err != nil {
						t.Fatal(err)
					}
					spaces = append(spaces, s)
				}
				for i, s := range spaces {
					fillHalfRandom(s, int64(i)+1)
				}
				if err := m.Err(); err != nil {
					t.Fatal(err)
				}
				if cfg.Faults != nil {
					// Corrupting a dirty cache entry destroys the only copy;
					// persist the populated set first so the run starts
					// from recoverable state.
					if m.CC != nil {
						for {
							if n, err := m.CC.Clean(); err != nil || n == 0 {
								break
							}
						}
					}
					m.Drain()
					m.Clock.Advance(faultWindow)
				}
				ic := readMostly(t, m, spaces, 1500, 3)
				t.Logf("%d image hits, %d recoveries; %v", m.imageHits, m.Faults().Recoveries, m.Err())

				if !cfg.CC.Enabled {
					if m.imageHits != 0 || len(m.images) != 0 {
						t.Fatalf("baseline machine took the image path: %d hits, %d images", m.imageHits, len(m.images))
					}
					return
				}
				if m.imageHits == 0 {
					t.Fatal("no clean re-eviction was served from an image")
				}
				if v.segCodec != "" && ic.perSeg[spaces[1].seg.ID] == 0 {
					t.Fatal("no image of the NewSegmentCodec segment was checked")
				}
			})
		}
	}
}

// memRemote is a RemoteStore that keeps every offered page in a map, so a
// single machine exercises the remote fetch path without a fleet.
type memRemote struct {
	pages           map[swap.PageKey]memRemotePage
	compressedFetch int
}

type memRemotePage struct {
	payload    []byte
	compressed bool
	sum        uint32
}

func (r *memRemote) Offer(key swap.PageKey, payload []byte, compressed bool, sum uint32) bool {
	r.pages[key] = memRemotePage{append([]byte(nil), payload...), compressed, sum}
	return true
}

func (r *memRemote) Fetch(key swap.PageKey) ([]byte, bool, uint32, bool, error) {
	pg, ok := r.pages[key]
	if ok && pg.compressed {
		r.compressedFetch++
	}
	return pg.payload, pg.compressed, pg.sum, ok, nil
}

func (r *memRemote) Has(key swap.PageKey) bool { _, ok := r.pages[key]; return ok }

func (r *memRemote) Invalidate(key swap.PageKey) { delete(r.pages, key) }

// TestRemoteFetchCapturesImage covers the third capture point: a page
// fetched compressed from fleet memory keeps that block as its image.
func TestRemoteFetchCapturesImage(t *testing.T) {
	r := &memRemote{pages: make(map[swap.PageKey]memRemotePage)}
	cfg := Default(mb / 2).WithCC()
	// A one-frame cache cannot recycle its only (tail) frame, so most
	// compressed evictions fail to insert and are offered to the remote.
	cfg.CC.MaxFrames = 1
	m := newMachine(t, cfg, WithRemote(r))
	s := m.NewSegment("heap", 384*4096)
	fillHalfRandom(s, 1)
	ic := newImageChecker()
	captured := 0
	for n := 0; n < 1500; n++ {
		p := int32(n) % s.Pages()
		fetched := r.compressedFetch
		if got := s.ReadWord(int64(p) * 4096); got != imageTag(p) {
			t.Fatalf("touch %d: page %d read %#x, want %#x (err %v)", n, p, got, imageTag(p), m.Err())
		}
		if r.compressedFetch > fetched {
			if _, ok := m.images[s.seg.Page(p).Key]; !ok {
				t.Fatalf("touch %d: page %d fetched compressed from the remote store has no image", n, p)
			}
			captured++
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("touch %d: %v", n, err)
		}
		if err := ic.check(m); err != nil {
			t.Fatalf("touch %d: %v", n, err)
		}
	}
	if captured == 0 || m.imageHits == 0 {
		t.Fatalf("remote capture not exercised: %d captures, %d image hits", captured, m.imageHits)
	}
}

// TestReclaimCapturesImage covers the cache-entry capture point: a cache
// hit keeps the entry and takes no image, and when core later reclaims that
// entry while the page is still resident, the entry's block becomes the
// page's image.
func TestReclaimCapturesImage(t *testing.T) {
	m := newMachine(t, Default(mb).WithCC())
	s := m.NewSegment("heap", 384*4096)
	fillHalfRandom(s, 1)
	p := int32(-1)
	for i := int32(0); i < s.Pages(); i++ {
		if s.seg.Page(i).State == vm.Compressed {
			p = i
			break
		}
	}
	if p < 0 {
		t.Fatal("no page in the compression cache")
	}
	if got := s.ReadWord(int64(p) * 4096); got != imageTag(p) {
		t.Fatalf("page %d read %#x, want %#x", p, got, imageTag(p))
	}
	pg := s.seg.Page(p)
	if pg.State != vm.Resident || !m.CC.Has(pg.Key) {
		t.Fatalf("page %d after a cache hit: state %v, entry retained %v", p, pg.State, m.CC.Has(pg.Key))
	}
	if _, ok := m.images[pg.Key]; ok {
		t.Fatal("a cache hit captured an image while its entry is still live")
	}
	for m.CC.Has(pg.Key) {
		if ok, err := m.CC.ReleaseOldest(); !ok || err != nil {
			t.Fatalf("ReleaseOldest = %v, %v before reaching the page's entry", ok, err)
		}
	}
	if pg.State != vm.Resident {
		t.Fatalf("page %d left residency: %v", p, pg.State)
	}
	if _, ok := m.images[pg.Key]; !ok {
		t.Fatal("reclaiming a resident page's entry captured no image")
	}
	if err := newImageChecker().check(m); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
