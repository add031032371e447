package bus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"gem5aladdin/internal/fault"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/sim"
)

// addrTarget answers after (addr>>6)%13 steps, so responses come back out
// of issue order and contend for the fabric.
type addrTarget struct {
	eng  *sim.Engine
	step sim.Tick
}

func (a addrTarget) Access(addr uint64, bytes uint32, write bool, done func()) {
	a.eng.After(sim.Tick((addr>>6)%13)*a.step, done)
}

// Transaction mixes the seeded driver can issue.
const (
	mixAll    = iota // reads, writes and streams with 64-B granules
	mixWrites        // writes only
)

// Fault levels the seeded driver can attach.
const (
	faultsOff   = iota
	faultsOn    // BusNackProb 0.1, BusRetryLimit 3, BusBackoff 30ns
	faultsHeavy // BusNackProb 0.5: enough exhausted retries to pin drops
)

// mark is one observed callback: a progress mark carries the cumulative
// bytes delivered, a completion the transaction's size.
type mark struct {
	txn   int
	bytes uint32
	at    sim.Tick
}

// driveLog is what one seeded drive observed.
type driveLog struct {
	marks  []mark // every completion and progress mark, in firing order
	stats  Stats
	faults fault.Stats
	h      hash.Hash // marks, probe events, stats and fault log, in order

	eng *sim.Engine
	f   Fabric
	inj *fault.Injector
}

func (l *driveLog) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	l.h.Write(b[:])
}

func (l *driveLog) digest() string { return hex.EncodeToString(l.h.Sum(nil)) }

// drive issues 200 seeded transactions at uniform random times in
// [0, 4 µs) from the given number of masters, sized 8 B to 4 KiB over a
// 64 KiB window, a quarter of them to an explicit responder. It runs the
// engine dry and returns every completion, progress mark and probe event
// together with the final fabric and injector counters.
func drive(mk func(*sim.Engine, Target) Fabric, seed int64, masters, mix, faults int) *driveLog {
	l := stageDrive(mk, seed, masters, mix, faults)
	l.eng.Run()
	l.finish()
	return l
}

// stageDrive builds the fabric and schedules drive's transactions without
// running the engine, so a test can step it.
func stageDrive(mk func(*sim.Engine, Target) Fabric, seed int64, masters, mix, faults int) *driveLog {
	eng := sim.NewEngine()
	f := mk(eng, addrTarget{eng: eng, step: 10 * sim.Nanosecond})
	via := addrTarget{eng: eng, step: 3 * sim.Nanosecond}
	l := &driveLog{h: sha256.New(), eng: eng, f: f}
	if faults != faultsOff {
		cfg := fault.Config{Seed: uint64(seed), BusNackProb: 0.1, BusRetryLimit: 3,
			BusBackoff: 30 * sim.Nanosecond}
		if faults == faultsHeavy {
			cfg.BusNackProb = 0.5
		}
		l.inj = fault.New(cfg)
		f.SetFaults(l.inj)
	}
	probe := &obs.Probe{}
	probe.Listen(func(ev obs.Event) {
		l.word(uint64(len(ev.Name)))
		l.h.Write([]byte(ev.Name))
		l.word(ev.Start)
		l.word(ev.End)
		l.word(uint64(ev.Lane))
		l.word(ev.Bytes)
	})
	f.AttachProbe(probe)
	ids := make([]int, masters)
	for i := range ids {
		ids[i] = f.RegisterMaster()
	}
	observe := func(txn int, bytes uint32) {
		m := mark{txn: txn, bytes: bytes, at: eng.Now()}
		l.marks = append(l.marks, m)
		l.word(uint64(m.txn)<<32 | uint64(m.bytes))
		l.word(uint64(m.at))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		at := sim.Tick(rng.Int63n(int64(4 * sim.Microsecond)))
		kind := 1 // 0 read, 1 write, 2 stream
		if mix == mixAll {
			kind = rng.Intn(3)
		}
		t := Txn{
			Master: ids[rng.Intn(masters)],
			Addr:   uint64(rng.Intn(1<<16)) &^ 7,
			Bytes:  uint32(8 + rng.Intn(4096-8+1)),
			Write:  kind == 1,
		}
		if rng.Intn(4) == 0 {
			t.Target = via
		}
		id, size := i, t.Bytes
		t.Done = func() { observe(id, size) }
		if kind == 2 {
			t.Gran = 64
			t.Progress = func(cum uint32) { observe(id, cum) }
		}
		eng.Schedule(at, func() { f.Submit(t) })
	}
	return l
}

// finish hashes the drained fabric's and injector's counters.
func (l *driveLog) finish() {
	l.stats = l.f.Stats()
	l.word(l.stats.Transactions)
	l.word(l.stats.BytesMoved)
	l.word(uint64(l.stats.BusyTicks))
	l.word(uint64(l.stats.WaitTicks))
	if l.inj != nil {
		l.faults = l.inj.Stats()
		for _, r := range l.inj.Log() {
			l.word(r.Seq)
			l.word(uint64(r.Tick))
			l.word(uint64(r.Site)<<8 | uint64(r.Outcome))
			l.word(r.Addr)
			l.word(uint64(r.Attempt))
		}
	}
	s := l.faults
	for _, v := range []uint64{s.Injected, s.CorrectedSingles, s.DetectedDoubles,
		s.BusNacks, s.BusRetries, s.BusDrops, s.DMATimeouts, s.DMARetries, s.DMAAborts} {
		l.word(v)
	}
}

// driveBackends are the fabric configurations the timing digests pin.
var driveBackends = []struct {
	name string
	mk   func(*sim.Engine, Target) Fabric
}{
	{"bus", func(eng *sim.Engine, tgt Target) Fabric {
		return New(eng, Config{WidthBits: 64, Clock: sim.NewClockHz(100e6)}, tgt)
	}},
	{"crossbar", func(eng *sim.Engine, tgt Target) Fabric {
		return NewCrossbar(eng, CrossbarConfig{WidthBits: 64, Clock: sim.NewClockHz(100e6)}, tgt)
	}},
	{"crossbar-1slave", func(eng *sim.Engine, tgt Target) Fabric {
		return NewCrossbar(eng, CrossbarConfig{WidthBits: 64, Clock: sim.NewClockHz(100e6), Slaves: 1}, tgt)
	}},
	{"mesh-3x3", func(eng *sim.Engine, tgt Target) Fabric {
		return NewMesh(eng, MeshConfig{WidthBits: 64, Clock: sim.NewClockHz(100e6), Dim: 3}, tgt)
	}},
}

// fabricTimingGolden holds the digest of each backend's seeded drive, keyed
// by backend/masters/faults. The values were computed before the backends
// shared their admission and transaction code, and must never be edited:
// a mismatch means a backend's timing, stats or probe spans moved.
var fabricTimingGolden = map[string]string{
	"bus/1m/faults-off":               "fa433dd17f730ed435b98664e50a77e866821264c1369bfc21b8103cdea1ec20",
	"bus/1m/faults-on":                "874e3c042f20fd678f19a539d7f80aee3c9ce32ae6d6406ee016bb400d6e8f45",
	"bus/1m/faults-heavy":             "7c1ed66950dba25f08d7ab14885a9c7419e47422a8d51b6e7377c5c6679e4980",
	"bus/3m/faults-off":               "fec9b672c30aac51cd44f2c57caa4cf142033bd770c4c05ea345609b9a03f3fe",
	"bus/3m/faults-on":                "38c95bcb8ae4b9ba7fb9c18b0503f0c1d03e8cd48754b79ddb40554558c579fb",
	"bus/3m/faults-heavy":             "d9a89975f18498e49b784b07696c2cf8ae3a36e7b7a9d17f7cc2a02d51bb6dab",
	"crossbar/1m/faults-off":          "7ca56f45f70e16c9f3843ac6929967ee58fc02cd82c7e65e5400cfde3b99ba51",
	"crossbar/1m/faults-on":           "98154d8603877e5105927fbf347c48cf64febfba8632f449cc36582dd1f93d56",
	"crossbar/1m/faults-heavy":        "72947e0ddf3fe61511fb4e42d65a43277551ac22836e9101afb0ca0622c9f93c",
	"crossbar/3m/faults-off":          "eac7cfd18e3aa0382456ab82fcee55df696d79243ae2fadc8c00c88d1e479586",
	"crossbar/3m/faults-on":           "8d81acd40822c3751ef858e1b128534a9b60a54f172688b1bec3b29c892cf598",
	"crossbar/3m/faults-heavy":        "cc095e097826a949df25468094ac451358b5dad85a2f772054bf488bf017f6e5",
	"crossbar-1slave/1m/faults-off":   "3c2e327547b3c040f269d381b2761b4025f3494d11db960ad5a0abd6ff09a31e",
	"crossbar-1slave/1m/faults-on":    "405f2c591348f8cce8e6c43d5a9fe8dc5b76383936a8ddba6a0a4dda257ef058",
	"crossbar-1slave/1m/faults-heavy": "000b0ab5e2a13d042eaccf9a53504ddfb359936e6da1889f201e82904a0e8294",
	"crossbar-1slave/3m/faults-off":   "b3295de086e3347d2f6b7d4ff5edc3b4c5a457f475899b2d61ba66912ead3ca7",
	"crossbar-1slave/3m/faults-on":    "382b5fcd177329cc871f35f3287c2057cd5a46029c72d009947a97b5a26a1226",
	"crossbar-1slave/3m/faults-heavy": "9ac996affbc97ff8d7b88746026b10acc384b1d42b348200c010dc0a0fd2fdae",
	"mesh-3x3/1m/faults-off":          "c88652dbf3f8feb77fba08f8b33e674b2ba924649055e8312a0efe34307aa9cb",
	"mesh-3x3/1m/faults-on":           "a0407551258395505add4a2234b7c7698bc5185fdacfa653b66af4d5dd712362",
	"mesh-3x3/1m/faults-heavy":        "25f04f6f2147bec59ae93638c8e72593c5eabc106423d313362c2018b98b587d",
	"mesh-3x3/3m/faults-off":          "f253ab494c0d98f128f79ec2b5cd1531244ab26b5b2f99f1f6e8f090979a3605",
	"mesh-3x3/3m/faults-on":           "178fed10a2b97848f89ef565cc617afb7b89f5ff9cd6cf77762c3143f4f1eaf3",
	"mesh-3x3/3m/faults-heavy":        "ac680db45407056dd5503747eb97d7b4545c8b4140db84a052cb73c1601ed603",
}

// TestFabricTimingGolden pins every backend's timing bit for bit: each
// completion and progress tick, the final Stats, the injector's counters
// and log, and every probe span, with one and three masters and with
// fault injection off, on, and heavy enough to drop transactions.
func TestFabricTimingGolden(t *testing.T) {
	faultNames := []string{"off", "on", "heavy"}
	for _, be := range driveBackends {
		for _, masters := range []int{1, 3} {
			for faults, fname := range faultNames {
				key := fmt.Sprintf("%s/%dm/faults-%s", be.name, masters, fname)
				got := drive(be.mk, 7, masters, mixAll, faults).digest()
				want, ok := fabricTimingGolden[key]
				if !ok {
					t.Errorf("%q: %q,", key, got)
					continue
				}
				if got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
			}
		}
	}
}

// fabricDumpGolden holds the digest of what the no-progress watchdog reads
// from each backend during its seeded drive, keyed like fabricTimingGolden.
// The values were computed before the bus was built on the crossbar, and
// must never be edited: a mismatch means a backend's InFlight count or its
// DumpInFlight text, which stall messages and stored abort records carry,
// moved.
var fabricDumpGolden = map[string]string{
	"bus/1m/faults-off":               "2935d8798b647144cfe7e3d5558eef1983d4f8406ca515ceb318f5b20dff4954",
	"bus/1m/faults-on":                "034b4143e920c92eacbf1cf8cfbd4c6a1374123d6a942ccbb419bf97027c7225",
	"bus/1m/faults-heavy":             "3766bbfc40fa5af8eed225e2454f3f309111cb166bc7a62e7f8af6b8cb08056e",
	"bus/3m/faults-off":               "1f84a5b3f330aa5eb78c32d7a0653745bf1fdccc5c16405bee0b089c88aaba24",
	"bus/3m/faults-on":                "903f90350b099df907d6338e34d43a9fb136229a735ec1690ad47d3966180448",
	"bus/3m/faults-heavy":             "3829b47967f22fc3d2dc6ac2b72f9e9904c1b84694de84fe0ece4f8f59ed8e8f",
	"crossbar/1m/faults-off":          "7e0c80d85948d6aaeba8cf5993fbe24e24ab25882f911e8a47592cfccfab3166",
	"crossbar/1m/faults-on":           "410a68399091874fa9f911ad06542c595ae6a90037e05a35b2c021af812e90f6",
	"crossbar/1m/faults-heavy":        "5c256f34fad257d5caef74d3557ec10206d1d0892a2ed3202d4fda1e65503eef",
	"crossbar/3m/faults-off":          "8e0c9603f05ec6524ffb232a4ab5c30894e2826d6ba2665ec4b27a495bea19eb",
	"crossbar/3m/faults-on":           "ca1b85520b149fed14118a5fe5b1c8a257ac18ad5ee61e6af7ba9a76e71e83dc",
	"crossbar/3m/faults-heavy":        "22b30f0ec3340d61d8852d30b64100b6c95445ef6f31c4e8b9028de670dfb384",
	"crossbar-1slave/1m/faults-off":   "92596d725836c7891bf3dad25c9a8f604c501fd66696f6300750bb37279f79aa",
	"crossbar-1slave/1m/faults-on":    "64a856ae32e5c8f9535f2f31966650c870c8f0f19c66525d67d1d272198dd180",
	"crossbar-1slave/1m/faults-heavy": "f4a2b16e70e5763da3646389f6e3728dfb785aa5072d98d200c78de160ce62ea",
	"crossbar-1slave/3m/faults-off":   "1594a196114f7ff5615743ccf5c9538ce94f6964dcf239cef9f7a6c62ed5d511",
	"crossbar-1slave/3m/faults-on":    "ae09855bafdb69431bb0662425616a748fcf85fd1483cf3ce4281fddffb86e2e",
	"crossbar-1slave/3m/faults-heavy": "de7d2ca810aee05c4aabd3df7684950ca44bb3648637c2dbd81033f6811211e4",
	"mesh-3x3/1m/faults-off":          "797e10bf2e1d83519c80ef9456a5a62f1e0fe2cb05ae9b50648962a5771bc0a7",
	"mesh-3x3/1m/faults-on":           "41734f4dd5a30a943aa0ad52437c3434322a1b527be3c932ae008427f2f2cb00",
	"mesh-3x3/1m/faults-heavy":        "a66f4dddcca9de0a856eddf52ff0f70d4a5c8a6d02965c135e95418cfafcb2fe",
	"mesh-3x3/3m/faults-off":          "2774fd20ecd0cb043c7bf01b3b7116889bec1ea66738cc17a487dd85ca5f7870",
	"mesh-3x3/3m/faults-on":           "9f6b380cb84b8f63bafe26818293cde3edb9cc606452b84c45e31d646e1d6ed5",
	"mesh-3x3/3m/faults-heavy":        "f2d814dd49d1df7ad2b3d7fe6e647720c8a59cbd8156423dc9fc7f52b7db0ed2",
}

// TestFabricDumpGolden pins each backend's InFlight and DumpInFlight over
// the seeded drive, with one and three masters and faults off, on and
// heavy. As the engine steps it hashes the InFlight count whenever it
// changes, and the DumpInFlight text at every 16th event and once drained:
// formatting the text after every event would take seconds.
func TestFabricDumpGolden(t *testing.T) {
	faultNames := []string{"off", "on", "heavy"}
	for _, be := range driveBackends {
		for _, masters := range []int{1, 3} {
			for faults, fname := range faultNames {
				key := fmt.Sprintf("%s/%dm/faults-%s", be.name, masters, fname)
				l := stageDrive(be.mk, 7, masters, mixAll, faults)
				h := sha256.New()
				var b [8]byte
				word := func(v uint64) {
					binary.LittleEndian.PutUint64(b[:], v)
					h.Write(b[:])
				}
				dump := func() {
					s := l.f.DumpInFlight()
					word(uint64(len(s)))
					h.Write([]byte(s))
				}
				last := l.f.InFlight()
				for l.eng.Step() {
					event := l.eng.EventsFired()
					if n := l.f.InFlight(); n != last {
						word(event)
						word(uint64(l.eng.Now()))
						word(uint64(n))
						last = n
					}
					if event%16 == 0 {
						word(event)
						dump()
					}
				}
				word(l.eng.EventsFired())
				dump()
				got := hex.EncodeToString(h.Sum(nil))
				want, ok := fabricDumpGolden[key]
				if !ok {
					t.Errorf("%q: %q,", key, got)
					continue
				}
				if got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
