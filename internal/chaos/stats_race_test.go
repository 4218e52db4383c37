package chaos

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestStatsConcurrentWithFaults is the documented concurrency contract
// of Injector.Stats made executable: read stats while other goroutines
// wrap connections and absorb injected faults. Run under -race in the race
// CI job, it proves the counters are atomics, not "usually fine"
// plain fields.
func TestStatsConcurrentWithFaults(t *testing.T) {
	in := New(Config{Seed: 7, Cut: 0.6, Reset: 0.3, Delay: 0.4, CutBytes: 32, MaxDelay: 50 * time.Microsecond})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := net.Pipe()
				drained := make(chan struct{})
				go func() {
					io.Copy(io.Discard, b)
					close(drained)
				}()
				wa := in.wrapConn(node, a)
				wa.Write(buf)
				wa.Write(buf)
				wa.Close()
				b.Close()
				<-drained
			}
		}(g)
	}

	// Keep reading until the workers have wrapped a healthy number of
	// connections, so readers and fault paths genuinely overlap.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; in.Stats().Conns < 100 || i < 100; i++ {
		if time.Now().After(deadline) {
			t.Fatal("workers wrapped no connections within the deadline")
		}
		st := in.Stats()
		// At most one of cut/reset severs any one connection.
		if st.Cuts+st.Resets > st.Conns {
			t.Fatalf("severed %d+%d connections out of %d wrapped", st.Cuts, st.Resets, st.Conns)
		}
	}
	close(stop)
	wg.Wait()

	if st := in.Stats(); st.Conns == 0 {
		t.Fatal("no connections wrapped; the test exercised nothing")
	}
}
