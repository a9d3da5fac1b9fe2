package guidance

import (
	"strings"
	"unicode"
)

// Tokenize lower-cases and splits a natural language query (or schema
// identifier) into word tokens. Underscores split identifiers so that
// birth_yr matches "birth" and "yr".
func Tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// synonyms maps a token to related tokens; matching through a synonym scores
// lower than an exact match. The table covers the generic vocabulary of the
// benchmark domains; domain-specific models can extend LexicalModel.Synonyms.
var synonyms = map[string][]string{
	"publication":  {"paper", "papers", "article", "articles", "publications", "work"},
	"paper":        {"publication", "publications", "article"},
	"author":       {"writer", "researcher", "authors", "people"},
	"name":         {"names", "called", "titled", "title"},
	"title":        {"titles", "name", "named", "called"},
	"year":         {"years", "date", "when", "time"},
	"count":        {"number", "many", "total"},
	"movie":        {"movies", "film", "films"},
	"actor":        {"actors", "actress", "actresses", "star", "stars", "starring"},
	"organization": {"organizations", "institution", "affiliation", "org"},
	"conference":   {"conferences", "venue", "venues"},
	"journal":      {"journals", "venue", "venues"},
	"keyword":      {"keywords", "topic", "topics", "term", "terms"},
	"domain":       {"domains", "area", "areas", "field", "fields"},
	"homepage":     {"homepages", "website", "websites", "url", "page"},
	"continent":    {"continents", "region"},
	"student":      {"students", "pupil", "pupils"},
	"teacher":      {"teachers", "instructor", "instructors", "professor"},
	"course":       {"courses", "class", "classes"},
	"grade":        {"grades", "score", "scores", "mark"},
	"price":        {"prices", "cost", "costs", "expensive", "cheap"},
	"salary":       {"salaries", "pay", "wage", "earnings", "paid"},
	"city":         {"cities", "town", "towns"},
	"country":      {"countries", "nation", "nations"},
	"population":   {"populations", "people", "inhabitants"},
	"airport":      {"airports"},
	"airline":      {"airlines", "carrier", "carriers"},
	"flight":       {"flights"},
	"employee":     {"employees", "staff", "worker", "workers"},
	"department":   {"departments", "dept"},
	"product":      {"products", "item", "items", "goods"},
	"customer":     {"customers", "client", "clients", "buyer", "buyers"},
	"order":        {"orders", "purchase", "purchases"},
	"patient":      {"patients"},
	"doctor":       {"doctors", "physician", "physicians"},
	"song":         {"songs", "track", "tracks"},
	"album":        {"albums", "record", "records"},
	"artist":       {"artists", "musician", "musicians", "singer", "singers", "band", "bands"},
	"team":         {"teams", "club", "clubs"},
	"player":       {"players", "athlete", "athletes"},
	"stadium":      {"stadiums", "arena", "arenas", "venue"},
	"capacity":     {"capacities", "seats", "size"},
	"budget":       {"budgets", "funding", "funds", "money"},
	"revenue":      {"revenues", "earnings", "income", "gross", "sales"},
	"rating":       {"ratings", "stars", "score", "rated"},
	"age":          {"ages", "old", "older", "young", "younger"},
	"gender":       {"sex", "male", "female"},
	"birth":        {"born", "birthday"},
	"yr":           {"year", "years"},
	"id":           {"identifier", "number"},
	"book":         {"books", "novel", "novels"},
	"branch":       {"branches", "store", "stores", "shop", "location"},
	"member":       {"members", "membership"},
	"room":         {"rooms"},
	"guest":        {"guests", "visitor", "visitors"},
	"hotel":        {"hotels"},
	"duration":     {"length", "time", "minutes", "long"},
	"genre":        {"genres", "kind", "type", "category", "style"},
	"wins":         {"won", "win", "victories"},
	"enrollment":   {"enrollments", "enrolled", "size"},
}

// related reports the match strength between two tokens: 1.0 exact, 0.8
// synonym, 0.6 shared 4+ character prefix (stemming-ish), 0 otherwise.
func related(a, b string) float64 {
	if a == b {
		return 1.0
	}
	for _, s := range synonyms[a] {
		if s == b {
			return 0.8
		}
	}
	for _, s := range synonyms[b] {
		if s == a {
			return 0.8
		}
	}
	if len(a) >= 4 && len(b) >= 4 {
		n := 4
		if a[:n] == b[:n] {
			return 0.6
		}
	}
	return 0
}

// tokenSetScore computes how strongly the NLQ token multiset evokes the
// identifier tokens: the mean, over identifier tokens, of the best NLQ
// match.
func tokenSetScore(nlq []string, ident []string) float64 {
	if len(ident) == 0 {
		return 0
	}
	total := 0.0
	for _, it := range ident {
		best := 0.0
		for _, nt := range nlq {
			if s := related(it, nt); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(ident))
}

// phraseSet is a list of cue phrases, each split into its words once, at
// package initialisation, so that matching never re-splits a phrase.
type phraseSet [][]string

// phrases builds a phraseSet from space-separated phrases.
func phrases(ps ...string) phraseSet {
	out := make(phraseSet, len(ps))
	for i, p := range ps {
		out[i] = strings.Fields(p)
	}
	return out
}

// in reports whether any of the phrases occurs in the token sequence.
func (ps phraseSet) in(tokens []string) bool {
	for _, words := range ps {
		if containsWords(tokens, words) {
			return true
		}
	}
	return false
}

// containsWords reports whether the token sequence contains the words
// contiguously. No words never match.
func containsWords(tokens, words []string) bool {
	if len(words) == 0 {
		return false
	}
outer:
	for i := 0; i+len(words) <= len(tokens); i++ {
		for j, w := range words {
			if tokens[i+j] != w {
				continue outer
			}
		}
		return true
	}
	return false
}
