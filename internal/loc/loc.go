// Package loc implements the localization service (§4) and its simulated
// sensing substrate. The paper's map servers "accept location cues, localize
// the device within their map, and return the results" (§5.2); here the
// cues are WiFi/BLE beacon RSSI vectors, fiducial tag sightings, and raw
// GPS, all synthesized by physically-plausible models:
//
//   - Radio: log-distance path loss with Gaussian shadowing, the standard
//     indoor propagation model, drives both fingerprint construction and
//     cue synthesis.
//   - Fingerprinting: a reference grid of expected RSSI vectors; queries
//     are answered by weighted k-nearest-neighbours in signal space.
//   - Fiducials: exact fixes within visual range of a tag.
//   - GPS: truth plus configurable Gaussian error, degraded or denied
//     indoors.
//
// The client side (§5.2) combines candidate fixes from multiple servers
// with an IMU dead-reckoning prior and picks the most plausible.
package loc

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"openflame/internal/geo"
)

// Technology identifies a localization method a server advertises.
type Technology string

// Supported technologies.
const (
	TechGPS      Technology = "gps"
	TechWiFiRSSI Technology = "wifi-rssi"
	TechFiducial Technology = "fiducial"
)

// Beacon is a radio transmitter at a known position in the map's local
// frame.
type Beacon struct {
	ID  string    `json:"id"`
	Pos geo.Point `json:"pos"`
}

// RadioModel is a log-distance path-loss model:
// RSSI(d) = TxPowerDBm − 10·Exponent·log10(max(d, RefMeters)/RefMeters) + N(0, ShadowSigmaDB).
type RadioModel struct {
	TxPowerDBm    float64 // received power at the reference distance
	Exponent      float64 // path-loss exponent (2 free space, 2.5–4 indoors)
	RefMeters     float64 // reference distance (typically 1m)
	ShadowSigmaDB float64 // shadowing noise when sampling
}

// DefaultRadioModel returns an indoor-plausible model.
func DefaultRadioModel() RadioModel {
	return RadioModel{TxPowerDBm: -40, Exponent: 2.8, RefMeters: 1, ShadowSigmaDB: 2}
}

// MeanRSSI returns the noise-free RSSI at distance d meters.
func (m RadioModel) MeanRSSI(d float64) float64 {
	if d < m.RefMeters {
		d = m.RefMeters
	}
	return m.TxPowerDBm - 10*m.Exponent*math.Log10(d/m.RefMeters)
}

// SampleRSSI returns a noisy RSSI observation at distance d.
func (m RadioModel) SampleRSSI(d float64, rng *rand.Rand) float64 {
	return m.MeanRSSI(d) + rng.NormFloat64()*m.ShadowSigmaDB
}

// Cue is the sensor evidence a client sends to a map server for
// localization. Exactly the fields for the chosen technology are set.
type Cue struct {
	Technology Technology          `json:"technology"`
	RSSI       map[string]float64  `json:"rssi,omitempty"`      // beacon ID → dBm
	TagID      string              `json:"tagId,omitempty"`     // fiducial sighting
	GPS        *geo.LatLng         `json:"gps,omitempty"`       // raw GPS reading
	Landmarks  []VisualObservation `json:"landmarks,omitempty"` // recognized image landmarks
}

// Fix is a localization result in the serving map's local frame, with an
// uncertainty estimate.
type Fix struct {
	Local       geo.Point  `json:"local"`
	World       geo.LatLng `json:"world"` // frame-converted estimate
	SigmaMeters float64    `json:"sigmaMeters"`
	Technology  Technology `json:"technology"`
	Source      string     `json:"source,omitempty"` // map server name
	// Confidence in (0, 1]: the server's own assessment of the fix.
	Confidence float64 `json:"confidence"`
}

// SynthesizeRSSICue builds a noisy RSSI cue for a device at local position
// p, observing the given beacons. Beacons beyond sensitivity are dropped.
func SynthesizeRSSICue(p geo.Point, beacons []Beacon, model RadioModel, rng *rand.Rand) Cue {
	const sensitivityDBm = -95
	rssi := make(map[string]float64)
	for _, b := range beacons {
		v := model.SampleRSSI(p.Dist(b.Pos), rng)
		if v >= sensitivityDBm {
			rssi[b.ID] = v
		}
	}
	return Cue{Technology: TechWiFiRSSI, RSSI: rssi}
}

// fingerprint is one reference point of the radio map.
type fingerprint struct {
	pos  geo.Point
	rssi map[string]float64
}

// FingerprintDB is a server's radio map: expected RSSI vectors on a grid.
type FingerprintDB struct {
	model   RadioModel
	beacons []Beacon
	grid    []fingerprint
	step    float64
}

// BuildFingerprintDB surveys the rectangle [min, max] (local frame) on a
// stepMeters grid against the beacons.
func BuildFingerprintDB(beacons []Beacon, min, max geo.Point, stepMeters float64, model RadioModel) (*FingerprintDB, error) {
	if stepMeters <= 0 || max.X < min.X || max.Y < min.Y || len(beacons) == 0 {
		return nil, fmt.Errorf("loc: invalid fingerprint survey parameters")
	}
	db := &FingerprintDB{model: model, beacons: beacons, step: stepMeters}
	for y := min.Y; y <= max.Y+1e-9; y += stepMeters {
		for x := min.X; x <= max.X+1e-9; x += stepMeters {
			p := geo.Point{X: x, Y: y}
			fp := fingerprint{pos: p, rssi: make(map[string]float64, len(beacons))}
			for _, b := range beacons {
				fp.rssi[b.ID] = model.MeanRSSI(p.Dist(b.Pos))
			}
			db.grid = append(db.grid, fp)
		}
	}
	return db, nil
}

// Size returns the number of reference points.
func (db *FingerprintDB) Size() int { return len(db.grid) }

// Localize estimates the device position from an RSSI cue by inverse-
// distance-weighted kNN in signal space. It returns false when the cue
// shares no beacons with the radio map.
func (db *FingerprintDB) Localize(cue Cue) (Fix, bool) {
	if cue.Technology != TechWiFiRSSI || len(cue.RSSI) == 0 {
		return Fix{}, false
	}
	type scored struct {
		idx  int
		dist float64 // signal-space distance
	}
	var cands []scored
	for i, fp := range db.grid {
		var sum float64
		n := 0
		for id, v := range cue.RSSI {
			if ref, ok := fp.rssi[id]; ok {
				d := v - ref
				sum += d * d
				n++
			}
		}
		if n == 0 {
			continue
		}
		cands = append(cands, scored{idx: i, dist: math.Sqrt(sum / float64(n))})
	}
	if len(cands) == 0 {
		return Fix{}, false
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	k := 4
	if len(cands) < k {
		k = len(cands)
	}
	var wsum float64
	var acc geo.Point
	for _, c := range cands[:k] {
		w := 1 / (c.dist + 0.1)
		acc = acc.Add(db.grid[c.idx].pos.Scale(w))
		wsum += w
	}
	est := acc.Scale(1 / wsum)
	// Uncertainty: grid spread of the k neighbours plus signal mismatch.
	var spread float64
	for _, c := range cands[:k] {
		spread += db.grid[c.idx].pos.Dist(est)
	}
	spread = spread/float64(k) + db.step/2
	conf := 1 / (1 + cands[0].dist/db.model.ShadowSigmaDB/4)
	if conf > 1 {
		conf = 1
	}
	return Fix{
		Local:       est,
		SigmaMeters: spread,
		Technology:  TechWiFiRSSI,
		Confidence:  conf,
	}, true
}

// Fiducial is a visually identifiable tag at a known local position.
type Fiducial struct {
	ID  string    `json:"id"`
	Pos geo.Point `json:"pos"`
}

// FiducialIndex answers fiducial cues.
type FiducialIndex struct {
	byID map[string]Fiducial
}

// NewFiducialIndex builds an index of tags.
func NewFiducialIndex(tags []Fiducial) *FiducialIndex {
	idx := &FiducialIndex{byID: make(map[string]Fiducial, len(tags))}
	for _, f := range tags {
		idx.byID[f.ID] = f
	}
	return idx
}

// Localize resolves a fiducial sighting to a near-exact fix.
func (idx *FiducialIndex) Localize(cue Cue) (Fix, bool) {
	if cue.Technology != TechFiducial || cue.TagID == "" {
		return Fix{}, false
	}
	f, ok := idx.byID[cue.TagID]
	if !ok {
		return Fix{}, false
	}
	return Fix{Local: f.Pos, SigmaMeters: 0.5, Technology: TechFiducial, Confidence: 0.99}, true
}

// GPSModel synthesizes GPS readings: truth plus Gaussian error, with a
// distinct (typically much larger) error indoors, or denial.
type GPSModel struct {
	OutdoorSigmaMeters float64
	IndoorSigmaMeters  float64
	IndoorDenied       bool
}

// DefaultGPSModel matches typical smartphone behaviour: ~5m outdoors,
// ~35m or denied indoors.
func DefaultGPSModel() GPSModel {
	return GPSModel{OutdoorSigmaMeters: 5, IndoorSigmaMeters: 35}
}

// Sample returns a GPS cue for a device at truth; indoor selects the
// degraded regime. ok is false when the signal is denied.
func (g GPSModel) Sample(truth geo.LatLng, indoor bool, rng *rand.Rand) (Cue, bool) {
	sigma := g.OutdoorSigmaMeters
	if indoor {
		if g.IndoorDenied {
			return Cue{}, false
		}
		sigma = g.IndoorSigmaMeters
	}
	d := math.Abs(rng.NormFloat64()) * sigma
	brg := rng.Float64() * 360
	p := geo.Offset(truth, d, brg)
	return Cue{Technology: TechGPS, GPS: &p}, true
}

// DeadReckoner integrates step displacements with accumulating drift — the
// client's "own IMU sensors" prior (§5.2).
type DeadReckoner struct {
	pos        geo.Point
	sigma      float64
	driftPerM  float64
	rng        *rand.Rand
	stepsTotal float64
}

// NewDeadReckoner starts dead reckoning at a known local position with the
// given per-meter drift rate (typical pedestrian inertial drift is 1–5%).
func NewDeadReckoner(start geo.Point, driftPerMeter float64, rng *rand.Rand) *DeadReckoner {
	return &DeadReckoner{pos: start, driftPerM: driftPerMeter, rng: rng}
}

// Advance integrates a true displacement, corrupting it by drift noise.
func (d *DeadReckoner) Advance(truthDelta geo.Point) {
	n := truthDelta.Norm()
	noisy := geo.Point{
		X: truthDelta.X + d.rng.NormFloat64()*d.driftPerM*n,
		Y: truthDelta.Y + d.rng.NormFloat64()*d.driftPerM*n,
	}
	d.pos = d.pos.Add(noisy)
	d.stepsTotal += n
	d.sigma = d.driftPerM * d.stepsTotal
}

// Reset re-anchors the reckoner at a trusted fix.
func (d *DeadReckoner) Reset(p geo.Point) {
	d.pos = p
	d.sigma = 0
	d.stepsTotal = 0
}

// Estimate returns the current position estimate and its 1-sigma
// uncertainty in meters.
func (d *DeadReckoner) Estimate() (geo.Point, float64) { return d.pos, d.sigma }
