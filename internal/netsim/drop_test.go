package netsim

import "testing"

// TestDropDetails pins the drop trace details to the "<kind> <reason>"
// bytes that traces have always carried, for every kind and reason.
func TestDropDetails(t *testing.T) {
	reasons := map[dropReason]string{
		dropQueueFull:  "queue full",
		dropTTLExpired: "ttl expired",
		dropNoRoute:    "no route",
		dropNoConn:     "no conn",
	}
	for k := kindDatagram; k <= kindFIN; k++ {
		for r, text := range reasons {
			if got, want := k.dropDetail(r), k.String()+" "+text; got != want {
				t.Errorf("dropDetail(%v, %d) = %q, want %q", k, r, got, want)
			}
		}
	}
}
