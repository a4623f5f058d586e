package apps

import (
	"strings"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// Classifier maps flow records to application realms using port/protocol
// heuristics, the approach the paper cites for identifying concrete
// applications from transport- and application-layer ports.
//
// The zero value is not usable; construct with NewClassifier.
type Classifier struct {
	tcp map[int]Realm
	udp map[int]Realm
}

// NewClassifier builds a classifier with the built-in well-known-port
// table.
func NewClassifier() *Classifier {
	c := &Classifier{
		tcp: make(map[int]Realm, 64),
		udp: make(map[int]Realm, 32),
	}
	c.installDefaults()
	return c
}

// installDefaults loads the well-known port table. Ports follow IANA
// assignments plus the de-facto ports of the applications dominant in a
// 2012 Chinese campus network (QQ, Thunder/Xunlei, PPLive, …), which is
// the population the paper measured.
func (c *Classifier) installDefaults() {
	// IM: QQ (8000/udp, 443 fallback excluded), MSN 1863, XMPP 5222/5269,
	// IRC 6667, AIM/ICQ 5190.
	for _, p := range []int{1863, 5222, 5269, 6667, 5190} {
		c.tcp[p] = RealmIM
	}
	c.udp[8000] = RealmIM // QQ
	c.udp[4000] = RealmIM // older QQ client port

	// P2P: BitTorrent 6881-6889, eMule 4662/4672, Thunder/Xunlei 15000.
	for p := 6881; p <= 6889; p++ {
		c.tcp[p] = RealmP2P
	}
	c.tcp[4662] = RealmP2P
	c.udp[4672] = RealmP2P
	c.tcp[15000] = RealmP2P

	// Music streaming: RTSP 554, Shoutcast 8001, QQ Music 3478 region.
	c.tcp[554] = RealmMusic
	c.tcp[8001] = RealmMusic
	c.udp[554] = RealmMusic

	// E-mail: SMTP 25/465/587, POP3 110/995, IMAP 143/993.
	for _, p := range []int{25, 465, 587, 110, 995, 143, 993} {
		c.tcp[p] = RealmEmail
	}

	// Video: RTMP 1935, PPLive 3908, PPStream 7786, MMS 1755.
	c.tcp[1935] = RealmVideo
	c.tcp[3908] = RealmVideo
	c.udp[7786] = RealmVideo
	c.tcp[1755] = RealmVideo
	c.udp[1755] = RealmVideo

	// Web: HTTP(S) and proxies. DNS rides along with browsing and is
	// grouped into web per the paper's port-combination heuristics.
	for _, p := range []int{80, 443, 8080, 3128} {
		c.tcp[p] = RealmWeb
	}
	c.udp[53] = RealmWeb
	c.tcp[53] = RealmWeb
}

// ephemeralPortFloor is the conventional start of the ephemeral range.
const ephemeralPortFloor = 49152

// Classify returns the realm of one flow. Either endpoint port may match;
// the server side of a flow can be the source or destination depending on
// direction. Unmatched flows fall to the ephemeral-P2P heuristic — both
// endpoints on ephemeral ports is P2P, a standard port-based heuristic
// for swarm protocols — then to RealmUnknown.
func (c *Classifier) Classify(f trace.Flow) Realm {
	var table map[int]Realm
	switch strings.ToLower(f.Proto) {
	case "tcp":
		table = c.tcp
	case "udp":
		table = c.udp
	default:
		return RealmUnknown
	}
	if r, ok := table[f.DstPort]; ok {
		return r
	}
	if r, ok := table[f.SrcPort]; ok {
		return r
	}
	if f.SrcPort >= ephemeralPortFloor && f.DstPort >= ephemeralPortFloor {
		return RealmP2P
	}
	return RealmUnknown
}
