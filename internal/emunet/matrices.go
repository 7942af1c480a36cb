package emunet

import "time"

// Canonical link matrices reproducing the paper's Table I and Table II.
// Latencies in the tables are ping round-trip times; the matrices store
// one-way delays (RTT/2). Table I bandwidths are the paper's halved values
// (they throttled to half the observed EC2 throughput to keep their gigabit
// NICs from becoming the bottleneck); we emulate the same halved numbers.

// EC2Matrix returns the emulated Amazon EC2 WAN of Table I for the Fig. 2
// topology (nodes 1,2 = North California; 3..6 = North Virginia; 7 =
// Oregon; 8 = Ohio). Links the table does not cover (between two remote
// regions, which carry only ACK gossip) are derived by triangle composition
// through North California: latency adds, bandwidth takes the minimum.
func EC2Matrix() *Matrix {
	const (
		ncalLat = 3.7 // ms RTT, between N. California availability zones
		ohioLat = 53.87
		oregLat = 23.29
		nvirLat = 64.12

		ncalBW = 333.5 // Mbit/s (half of observed, as in the paper)
		ohioBW = 44.5
		oregBW = 56.5
		nvirBW = 37
	)
	regionOf := map[int]string{
		1: "ncal", 2: "ncal",
		3: "nvir", 4: "nvir", 5: "nvir", 6: "nvir",
		7: "oreg", 8: "ohio",
	}
	// Latency/bandwidth from North California to each region.
	lat := map[string]float64{"ncal": ncalLat, "nvir": nvirLat, "oreg": oregLat, "ohio": ohioLat}
	bw := map[string]float64{"ncal": ncalBW, "nvir": nvirBW, "oreg": oregBW, "ohio": ohioBW}

	m := NewMatrix()
	m.Default = Link{OneWayLatency: 40 * time.Millisecond, BandwidthBps: Mbps(50)}
	for a := 1; a <= 8; a++ {
		for b := a + 1; b <= 8; b++ {
			ra, rb := regionOf[a], regionOf[b]
			var l Link
			switch {
			case ra == rb:
				// Intra-region availability-zone link.
				l = Link{OneWayLatency: halfMS(ncalLat), BandwidthBps: Mbps(ncalBW)}
			case ra == "ncal":
				l = Link{OneWayLatency: halfMS(lat[rb]), BandwidthBps: Mbps(bw[rb])}
			case rb == "ncal":
				l = Link{OneWayLatency: halfMS(lat[ra]), BandwidthBps: Mbps(bw[ra])}
			default:
				// Remote↔remote: triangle through North California.
				l = Link{
					OneWayLatency: halfMS(lat[ra] + lat[rb]),
					BandwidthBps:  Mbps(min(bw[ra], bw[rb])),
				}
			}
			m.SetSymmetric(a, b, l)
		}
	}
	return m
}

// CloudLabMatrix returns the real-WAN profile of Table II for the CloudLab
// topology (1 = Utah1, 2 = Utah2, 3 = Wisconsin, 4 = Clemson, 5 =
// Massachusetts). The table lists measurements from Utah1; remote↔remote
// links are triangle-composed through Utah.
func CloudLabMatrix() *Matrix {
	type site struct {
		lat float64 // ms RTT from Utah1
		bw  float64 // Mbit/s from Utah1
	}
	sites := map[int]site{
		2: {lat: 0.124, bw: 9246.99},
		3: {lat: 35.612, bw: 361.82},
		4: {lat: 50.918, bw: 416.27},
		5: {lat: 48.083, bw: 437.11},
	}
	m := NewMatrix()
	m.Default = Link{OneWayLatency: 25 * time.Millisecond, BandwidthBps: Mbps(400)}
	for idx, s := range sites {
		m.SetSymmetric(1, idx, Link{OneWayLatency: halfMS(s.lat), BandwidthBps: Mbps(s.bw)})
		// Utah2 shares Utah1's vantage point for remote sites.
		if idx != 2 {
			m.SetSymmetric(2, idx, Link{OneWayLatency: halfMS(s.lat + sites[2].lat), BandwidthBps: Mbps(min(s.bw, sites[2].bw))})
		}
	}
	for a := 3; a <= 5; a++ {
		for b := a + 1; b <= 5; b++ {
			m.SetSymmetric(a, b, Link{
				OneWayLatency: halfMS(sites[a].lat + sites[b].lat),
				BandwidthBps:  Mbps(min(sites[a].bw, sites[b].bw)),
			})
		}
	}
	return m
}

func halfMS(rttMS float64) time.Duration {
	return time.Duration(rttMS / 2 * float64(time.Millisecond))
}
