"""A LUBM-style university dataset generator.

The Lehigh University Benchmark's Java generator cannot run offline, so this
module re-implements its schema and cardinality ratios (scaled down by
default) with a seeded PRNG: universities contain departments; departments
employ full/associate/assistant professors and lecturers; students take
courses, have advisors, and co-author publications with faculty — the same
relation structure LUBM(50,0) exercises in the paper's Fig. 6b.

:func:`iter_lubm_triples` is the streaming form: it yields the exact same
triple sequence :func:`generate_lubm` materializes (asserted by test), with
memory bounded by one department's entities — the out-of-core build path
(`repro build`) consumes it directly so million-triple scales never
instantiate a :class:`~repro.rdf.graph.DataGraph` first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.rdf.graph import DataGraph
from repro.rdf.namespace import Namespace, RDF, RDFS
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple

#: Vocabulary namespace, mirroring LUBM's univ-bench ontology names.
UB = Namespace("http://example.org/univ-bench/")


@dataclass(frozen=True)
class LubmConfig:
    """Scaled-down LUBM cardinalities (original ranges in comments)."""

    universities: int = 1
    seed: int = 50
    departments_per_university: Tuple[int, int] = (3, 5)  # LUBM: 15-25
    full_professors: Tuple[int, int] = (2, 4)  # LUBM: 7-10
    associate_professors: Tuple[int, int] = (3, 5)  # LUBM: 10-14
    assistant_professors: Tuple[int, int] = (2, 4)  # LUBM: 8-11
    lecturers: Tuple[int, int] = (2, 3)  # LUBM: 5-7
    undergrad_per_faculty: Tuple[int, int] = (3, 5)  # LUBM: 8-14
    grad_per_faculty: Tuple[int, int] = (1, 3)  # LUBM: 3-4
    courses_per_faculty: Tuple[int, int] = (1, 2)
    publications_per_faculty: Tuple[int, int] = (1, 5)


_FACULTY_CLASSES = ("FullProfessor", "AssociateProfessor", "AssistantProfessor")


def iter_lubm_triples(config: LubmConfig = LubmConfig()) -> Iterator[Triple]:
    """Stream the dataset's triples deterministically for a given config.

    Yields exactly the sequence ``generate_lubm(config)`` would store (the
    PRNG consumption order is identical), holding only one department's
    faculty/course/publication lists at a time.
    """
    rng = random.Random(config.seed)
    t = RDF.type
    sub = RDFS.subClassOf

    # Class hierarchy (subset of univ-bench).
    hierarchy = [
        ("FullProfessor", "Professor"),
        ("AssociateProfessor", "Professor"),
        ("AssistantProfessor", "Professor"),
        ("Professor", "Faculty"),
        ("Lecturer", "Faculty"),
        ("Faculty", "Employee"),
        ("Employee", "Person"),
        ("UndergraduateStudent", "Student"),
        ("GraduateStudent", "Student"),
        ("Student", "Person"),
        ("GraduateCourse", "Course"),
        ("Department", "Organization"),
        ("University", "Organization"),
        ("ResearchGroup", "Organization"),
    ]
    for child, parent in hierarchy:
        yield Triple(UB[child], sub, UB[parent])

    pub_index = 0
    course_index = 0

    for u in range(config.universities):
        university = UB[f"university{u}"]
        yield Triple(university, t, UB.University)
        yield Triple(university, UB.name, Literal(f"University{u}"))

        n_departments = rng.randint(*config.departments_per_university)
        for d in range(n_departments):
            department = UB[f"department{u}_{d}"]
            yield Triple(department, t, UB.Department)
            yield Triple(department, UB.name, Literal(f"Department{d} of University{u}"))
            yield Triple(department, UB.subOrganizationOf, university)

            group = UB[f"group{u}_{d}"]
            yield Triple(group, t, UB.ResearchGroup)
            yield Triple(group, UB.subOrganizationOf, department)

            faculty: List[URI] = []
            counts = (
                rng.randint(*config.full_professors),
                rng.randint(*config.associate_professors),
                rng.randint(*config.assistant_professors),
            )
            for cls_name, count in zip(_FACULTY_CLASSES, counts):
                for i in range(count):
                    prof = UB[f"{cls_name.lower()}{u}_{d}_{i}"]
                    faculty.append(prof)
                    yield Triple(prof, t, UB[cls_name])
                    yield Triple(prof, UB.name, Literal(f"{cls_name}{i} Dept{d} Univ{u}"))
                    yield Triple(prof, UB.emailAddress, Literal(f"{cls_name.lower()}{i}@u{u}d{d}.edu"))
                    yield Triple(prof, UB.worksFor, department)
                    yield Triple(
                        prof, UB.doctoralDegreeFrom,
                        UB[f"university{rng.randrange(max(config.universities, 1))}"],
                    )
            # The first full professor heads the department.
            yield Triple(faculty[0], UB.headOf, department)

            for i in range(rng.randint(*config.lecturers)):
                lecturer = UB[f"lecturer{u}_{d}_{i}"]
                faculty.append(lecturer)
                yield Triple(lecturer, t, UB.Lecturer)
                yield Triple(lecturer, UB.name, Literal(f"Lecturer{i} Dept{d} Univ{u}"))
                yield Triple(lecturer, UB.worksFor, department)

            # Courses taught by faculty.
            courses: List[URI] = []
            for member in faculty:
                for _ in range(rng.randint(*config.courses_per_faculty)):
                    is_grad = rng.random() < 0.3
                    course = UB[f"course{course_index}"]
                    course_index += 1
                    courses.append(course)
                    yield Triple(course, t, UB.GraduateCourse if is_grad else UB.Course)
                    yield Triple(course, UB.name, Literal(f"Course{course_index}"))
                    yield Triple(member, UB.teacherOf, course)

            # Publications co-authored by faculty (and later grad students).
            publications: List[URI] = []
            for member in faculty:
                for _ in range(rng.randint(*config.publications_per_faculty)):
                    pub = UB[f"publication{pub_index}"]
                    pub_index += 1
                    publications.append(pub)
                    yield Triple(pub, t, UB.Publication)
                    yield Triple(pub, UB.name, Literal(f"Publication{pub_index}"))
                    yield Triple(pub, UB.publicationAuthor, member)

            # Students.
            n_faculty = len(faculty)
            n_undergrad = rng.randint(*config.undergrad_per_faculty) * n_faculty
            for i in range(n_undergrad):
                student = UB[f"undergrad{u}_{d}_{i}"]
                yield Triple(student, t, UB.UndergraduateStudent)
                yield Triple(student, UB.name, Literal(f"UndergraduateStudent{i} Dept{d} Univ{u}"))
                yield Triple(student, UB.memberOf, department)
                for course in rng.sample(courses, min(len(courses), rng.randint(1, 3))):
                    yield Triple(student, UB.takesCourse, course)

            n_grad = rng.randint(*config.grad_per_faculty) * n_faculty
            for i in range(n_grad):
                student = UB[f"grad{u}_{d}_{i}"]
                yield Triple(student, t, UB.GraduateStudent)
                yield Triple(student, UB.name, Literal(f"GraduateStudent{i} Dept{d} Univ{u}"))
                yield Triple(student, UB.memberOf, department)
                yield Triple(student, UB.advisor, rng.choice(faculty))
                yield Triple(
                    student, UB.undergraduateDegreeFrom,
                    UB[f"university{rng.randrange(max(config.universities, 1))}"],
                )
                for course in rng.sample(courses, min(len(courses), rng.randint(1, 2))):
                    yield Triple(student, UB.takesCourse, course)
                if publications and rng.random() < 0.5:
                    yield Triple(rng.choice(publications), UB.publicationAuthor, student)


def generate_lubm(config: LubmConfig = LubmConfig()) -> DataGraph:
    """Generate the dataset deterministically for a given config."""
    return DataGraph(iter_lubm_triples(config))
