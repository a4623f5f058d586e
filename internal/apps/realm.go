// Package apps implements the application-identification pipeline of the S³
// study: classifying core-router flow records into the paper's six
// application realms via port/protocol heuristics, and building the
// normalized per-user application profiles (daily 6-category traffic
// vectors) that drive sociality learning.
package apps

import "fmt"

// Realm is one of the paper's six application categories. The paper
// examines the top-30 applications by volume and groups them into these
// realms.
type Realm int

// Application realms, matching the paper's enumeration. Realms start at 1
// so the zero value is recognizably "unset"; RealmUnknown collects flows
// the heuristics cannot attribute (the long tail the paper deems
// non-critical for network engineering).
const (
	RealmIM Realm = iota + 1
	RealmP2P
	RealmMusic
	RealmEmail
	RealmVideo
	RealmWeb
	RealmUnknown
)

// NumRealms is the number of modeled realms (excluding RealmUnknown); the
// application-profile vectors have this dimension.
const NumRealms = 6

// Realms lists the six modeled realms in canonical (profile-vector) order.
func Realms() [NumRealms]Realm {
	return [NumRealms]Realm{RealmIM, RealmP2P, RealmMusic, RealmEmail, RealmVideo, RealmWeb}
}

// String returns the realm's display name.
func (r Realm) String() string {
	switch r {
	case RealmIM:
		return "IM"
	case RealmP2P:
		return "P2P"
	case RealmMusic:
		return "music"
	case RealmEmail:
		return "email"
	case RealmVideo:
		return "video"
	case RealmWeb:
		return "web"
	case RealmUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Realm(%d)", int(r))
	}
}

// Index returns the realm's position in the profile vector, or -1 for
// realms outside the modeled six.
func (r Realm) Index() int {
	if r >= RealmIM && r <= RealmWeb {
		return int(r) - 1
	}
	return -1
}
